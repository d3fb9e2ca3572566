package pfs

import (
	"bytes"
	"testing"
)

func TestLayoutNormalize(t *testing.T) {
	cfg := DefaultConfig(8)
	l, err := Layout{}.normalize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.StripeUnit != cfg.StripeUnit || l.StripeCount != 8 || l.FirstTarget != 0 {
		t.Fatalf("defaults: %+v", l)
	}
	bads := []Layout{
		{StripeUnit: -1},
		{StripeCount: 9},
		{StripeCount: -1},
		{FirstTarget: 8},
		{FirstTarget: -1},
	}
	for i, b := range bads {
		if _, err := b.normalize(cfg); err == nil {
			t.Errorf("bad layout %d accepted", i)
		}
	}
}

func TestOpenStripedRoundTrip(t *testing.T) {
	fs := testFS(t, 8, 64)
	f, err := fs.OpenStriped("narrow", Layout{StripeUnit: 16, StripeCount: 2, FirstTarget: 3})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("striping over a narrow slice of the targets")
	if _, err := f.WriteAt(data, 5); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %q", got)
	}
	if f.Layout().StripeCount != 2 {
		t.Fatalf("layout = %+v", f.Layout())
	}
}

func TestOpenStripedConflict(t *testing.T) {
	fs := testFS(t, 4, 32)
	if _, err := fs.OpenStriped("f", Layout{StripeCount: 2}); err != nil {
		t.Fatal(err)
	}
	// Same layout: fine (idempotent open).
	if _, err := fs.OpenStriped("f", Layout{StripeUnit: 32, StripeCount: 2}); err != nil {
		t.Fatal(err)
	}
	// Different layout: rejected.
	if _, err := fs.OpenStriped("f", Layout{StripeCount: 3}); err == nil {
		t.Fatal("conflicting restripe accepted")
	}
	// Default Open on a custom-striped file returns the existing file.
	g := fs.Open("f")
	if g == nil || g.Layout().StripeCount != 2 {
		t.Fatal("Open did not return the existing striped file")
	}
}

func TestWriteHonorsLayout(t *testing.T) {
	fs := testFS(t, 8, 16)
	f, err := fs.OpenStriped("m", Layout{StripeUnit: 16, StripeCount: 2, FirstTarget: 5})
	if err != nil {
		t.Fatal(err)
	}
	// 64 bytes = stripes 0..3 → layout targets 0,1,0,1 → fs targets 5,6.
	f.WriteAt(make([]byte, 64), 0)
	w := fs.Stats().Written()
	for target, bytes := range w {
		want := int64(0)
		if target == 5 || target == 6 {
			want = 32
		}
		if bytes != want {
			t.Fatalf("per-target bytes = %v", w)
		}
	}
}

func TestWriteLayoutWraps(t *testing.T) {
	fs := testFS(t, 4, 16)
	f, err := fs.OpenStriped("w", Layout{StripeUnit: 16, StripeCount: 3, FirstTarget: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Layout targets 0,1,2 map to fs targets 3,0,1 (wrap).
	f.WriteAt(make([]byte, 48), 0)
	if w := fs.Stats().Written(); w[3] != 16 || w[0] != 16 || w[1] != 16 || w[2] != 0 {
		t.Fatalf("per-target bytes = %v", w)
	}
}

func TestTargetStats(t *testing.T) {
	fs := testFS(t, 4, 16)
	f := fs.Open("s")
	buf := make([]byte, 64) // 4 stripes over 4 targets
	f.WriteAt(buf, 0)
	f.ReadAt(buf[:32], 0)
	stats := fs.Stats()
	w := stats.Written()
	for i := 0; i < 4; i++ {
		if w[i] != 16 {
			t.Fatalf("written[%d] = %d, want 16", i, w[i])
		}
	}
}

func TestNarrowStripingConcentratesTraffic(t *testing.T) {
	fs := testFS(t, 8, 16)
	wide := fs.Open("wide")
	narrow, err := fs.OpenStriped("narrow", Layout{StripeCount: 1, FirstTarget: 2})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	wide.WriteAt(buf, 0)
	narrow.WriteAt(buf, 0)
	w := fs.Stats().Written()
	// The narrow file's 256 bytes all landed on target 2.
	if w[2] != 256+32 { // 32 from the wide file's share
		t.Fatalf("written[2] = %d", w[2])
	}
	if w[3] != 32 {
		t.Fatalf("written[3] = %d", w[3])
	}
}
