package pfs

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestMapExtentsMatchesUnitWalk drives the closed-form decomposition
// against the original per-stripe-unit walk on randomized extent sets
// and stripe geometries — the two must agree exactly on every target's
// bytes, request count and contiguity.
func TestMapExtentsMatchesUnitWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		cfg := Config{
			Targets:    1 + rng.Intn(7),
			StripeUnit: int64(1 + rng.Intn(64)),
		}
		var exts []Extent
		for i, n := 0, rng.Intn(8); i < n; i++ {
			exts = append(exts, Extent{
				Offset: int64(rng.Intn(2048)),
				Length: int64(rng.Intn(512)),
			})
		}
		got := cfg.MapExtents(exts)
		want := cfg.mapExtentsByUnit(exts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (targets=%d su=%d exts=%v):\nclosed-form: %+v\nunit walk:   %+v",
				trial, cfg.Targets, cfg.StripeUnit, exts, got, want)
		}
	}
}

// TestMapExtentsLargeExtent checks the closed form on an extent far too
// large for the unit walk to verify cheaply at real stripe sizes: a
// single contiguous multi-cycle extent must land as one contiguous range
// on every target with the bytes partitioned exactly.
func TestMapExtentsLargeExtent(t *testing.T) {
	cfg := Config{Targets: 1024, StripeUnit: 1 << 20}
	length := int64(1) << 42 // 4 TiB: ~4M stripe units
	accs := cfg.MapExtents([]Extent{{Offset: 12345, Length: length}})
	if len(accs) != cfg.Targets {
		t.Fatalf("touched %d targets, want %d", len(accs), cfg.Targets)
	}
	var total int64
	for _, a := range accs {
		if !a.Contiguous || a.Requests != 1 {
			t.Fatalf("target %d: requests=%d contiguous=%v, want one contiguous range", a.Target, a.Requests, a.Contiguous)
		}
		total += a.Bytes
	}
	if total != length {
		t.Fatalf("bytes sum %d, want %d", total, length)
	}
}

func BenchmarkMapExtentsLarge(b *testing.B) {
	cfg := DefaultConfig(1024)
	exts := []Extent{{Offset: 0, Length: 1 << 40}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.MapExtents(exts)
	}
}

// expandSpans lists spans target by target, checking on the way that
// they ascend, do not overlap and stay inside [0, targets).
func expandSpans(t *testing.T, spans []TargetAccess, targets int) []TargetAccess {
	t.Helper()
	out := []TargetAccess{}
	next := 0
	for _, s := range spans {
		if s.Count < 1 || s.Target < next || s.Target+s.Count > targets {
			t.Fatalf("span %+v out of order or range (next free target %d of %d): %+v", s, next, targets, spans)
		}
		next = s.Target + s.Count
		for k := 0; k < s.Count; k++ {
			a := s
			a.Target, a.Count = s.Target+k, 1
			out = append(out, a)
		}
	}
	return out
}

// FuzzMapSpans checks Mapper.Map's spans against the per-unit walk:
// expanded, they are exactly mapExtentsByUnit's per-target accesses.
// Extents start anywhere in a stripe cycle, so runs wrap past the last
// target, and reach several cycles long; a script of more than one
// extent exercises the multi-extent path. A single extent maps to at
// most four spans when it touches no more stripe units than there are
// targets, and to at most five whatever its length.
func FuzzMapSpans(f *testing.F) {
	f.Add(uint8(4), uint8(3), []byte{5, 40})
	f.Add(uint8(7), uint8(16), []byte{200, 255, 255})
	f.Add(uint8(3), uint8(1), []byte{2, 7, 9, 1, 30, 4})
	f.Add(uint8(1), uint8(9), []byte{0, 0, 1})
	m := map[Config]*Mapper{}
	f.Fuzz(func(t *testing.T, targetsRaw, stripeRaw uint8, script []byte) {
		cfg := Config{Targets: int(targetsRaw%16) + 1, StripeUnit: int64(stripeRaw%32) + 1}
		var exts []Extent
		for i := 0; i+3 <= len(script) && len(exts) < 8; i += 3 {
			exts = append(exts, Extent{
				Offset: int64(script[i])*int64(script[i+1]%8+1) + int64(i),
				Length: int64(script[i+2]) * int64(script[i+1]%4+1),
			})
		}
		mp := m[cfg]
		if mp == nil {
			mp = cfg.NewMapper()
			m[cfg] = mp
		}
		spans := mp.Map(exts)
		got := expandSpans(t, spans, cfg.Targets)
		want := cfg.mapExtentsByUnit(exts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("targets=%d su=%d exts=%v:\nspans:     %+v\nexpanded:  %+v\nunit walk: %+v",
				cfg.Targets, cfg.StripeUnit, exts, spans, got, want)
		}
		if norm := Normalized(exts); len(norm) == 1 {
			e := norm[0]
			bound := 5
			if units := (e.End()-1)/cfg.StripeUnit - e.Offset/cfg.StripeUnit + 1; units <= int64(cfg.Targets) {
				bound = 4
			}
			if len(spans) > bound {
				t.Fatalf("one extent %v over %d targets mapped to %d spans, want at most %d: %+v",
					exts, cfg.Targets, len(spans), bound, spans)
			}
		}
		if !reflect.DeepEqual(cfg.MapExtents(exts), want) {
			t.Fatalf("MapExtents(%v) differs from the unit walk", exts)
		}
	})
}

// TestMapSpansLargeExtent: a 4 TiB extent starting mid-cycle maps to a
// handful of spans covering every target once — the unit-count step,
// the trimmed head and tail, and the wrap to target 0 are the only
// breaks — and mapping it allocates nothing once the Mapper is warm.
func TestMapSpansLargeExtent(t *testing.T) {
	cfg := Config{Targets: 1024, StripeUnit: 1 << 20}
	exts := []Extent{{Offset: 700<<20 + 12345, Length: 1 << 42}}
	m := cfg.NewMapper()
	spans := m.Map(exts)
	got := expandSpans(t, spans, cfg.Targets)
	if len(spans) > 5 || len(got) != cfg.Targets {
		t.Fatalf("%d spans over %d targets, want at most 5 over %d: %+v", len(spans), len(got), cfg.Targets, spans)
	}
	if !reflect.DeepEqual(got, cfg.MapExtents(exts)) {
		t.Fatal("spans disagree with MapExtents")
	}
	if n := testing.AllocsPerRun(100, func() { m.Map(exts) }); n != 0 {
		t.Fatalf("Map allocates %v times per call after warm-up, want 0", n)
	}
}
