package pfs

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"mcio/internal/stats"
)

func testFS(t *testing.T, targets int, stripe int64) *FileSystem {
	t.Helper()
	cfg := DefaultConfig(targets)
	cfg.StripeUnit = stripe
	fs, err := NewFileSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(8).Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Config{
		{Targets: 0, StripeUnit: 1, TargetBW: 1, NoncontigFactor: 1},
		{Targets: 1, StripeUnit: 0, TargetBW: 1, NoncontigFactor: 1},
		{Targets: 1, StripeUnit: 1, TargetBW: 0, NoncontigFactor: 1},
		{Targets: 1, StripeUnit: 1, TargetBW: 1, ReqOverhead: -1, NoncontigFactor: 1},
		{Targets: 1, StripeUnit: 1, TargetBW: 1, NoncontigFactor: 0},
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	fs := testFS(t, 4, 16)
	f := fs.Open("a")
	data := []byte("the quick brown fox jumps over the lazy dog, twice around the block")
	if _, err := f.WriteAt(data, 5); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch:\n got %q\nwant %q", got, data)
	}
	if f.Size() != 5+int64(len(data)) {
		t.Fatalf("size = %d", f.Size())
	}
}

func TestSparseReadsZero(t *testing.T) {
	fs := testFS(t, 4, 16)
	f := fs.Open("sparse")
	f.WriteAt([]byte{0xff}, 100)
	got := make([]byte, 5)
	f.ReadAt(got, 0)
	for i, b := range got {
		if b != 0 {
			t.Fatalf("unwritten byte %d = %#x, want 0", i, b)
		}
	}
	// A hole between written regions also reads zero.
	one := make([]byte, 1)
	f.ReadAt(one, 50)
	if one[0] != 0 {
		t.Fatalf("hole read %#x", one[0])
	}
}

func TestNegativeOffsets(t *testing.T) {
	fs := testFS(t, 2, 8)
	f := fs.Open("x")
	if _, err := f.WriteAt([]byte{1}, -1); err == nil {
		t.Fatal("negative write offset accepted")
	}
	if _, err := f.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative read offset accepted")
	}
}

func TestEmptyOps(t *testing.T) {
	fs := testFS(t, 2, 8)
	f := fs.Open("x")
	if n, err := f.WriteAt(nil, 3); n != 0 || err != nil {
		t.Fatalf("empty write: n=%d err=%v", n, err)
	}
	if n, err := f.ReadAt(nil, 3); n != 0 || err != nil {
		t.Fatalf("empty read: n=%d err=%v", n, err)
	}
	if f.Size() != 0 {
		t.Fatal("empty write must not grow the file")
	}
}

func TestOpenIsIdempotent(t *testing.T) {
	fs := testFS(t, 2, 8)
	a := fs.Open("f")
	a.WriteAt([]byte("abc"), 0)
	b := fs.Open("f")
	got := make([]byte, 3)
	b.ReadAt(got, 0)
	if string(got) != "abc" {
		t.Fatal("Open returned a different file for the same name")
	}
}

func TestStripeLocRoundRobin(t *testing.T) {
	cfg := Config{Targets: 3, StripeUnit: 10, TargetBW: 1, NoncontigFactor: 1}
	cases := []struct {
		off    int64
		target int
		objOff int64
	}{
		{0, 0, 0}, {9, 0, 9}, {10, 1, 0}, {20, 2, 0}, {29, 2, 9},
		{30, 0, 10}, {35, 0, 15}, {40, 1, 10}, {65, 0, 25},
	}
	for _, c := range cases {
		target, objOff := cfg.stripeLoc(c.off)
		if target != c.target || objOff != c.objOff {
			t.Errorf("stripeLoc(%d) = (%d,%d), want (%d,%d)",
				c.off, target, objOff, c.target, c.objOff)
		}
	}
}

// Property: for random write/read patterns across stripe boundaries, the
// striped file behaves exactly like a flat byte array.
func TestFileMatchesFlatOracle(t *testing.T) {
	r := stats.NewRNG(41)
	err := quick.Check(func(seed uint64) bool {
		rr := stats.NewRNG(seed)
		fs, _ := NewFileSystem(Config{
			Targets: rr.Intn(7) + 1, StripeUnit: int64(rr.Intn(33) + 1),
			TargetBW: 1, NoncontigFactor: 1,
		})
		f := fs.Open("oracle")
		const max = 2048
		oracle := make([]byte, max)
		for i := 0; i < 20; i++ {
			off := rr.Int63n(max / 2)
			n := int(rr.Int63n(max/2)) + 1
			buf := make([]byte, n)
			for j := range buf {
				buf[j] = byte(rr.Uint64())
			}
			f.WriteAt(buf, off)
			copy(oracle[off:off+int64(n)], buf)
		}
		got := make([]byte, max)
		f.ReadAt(got, 0)
		return bytes.Equal(got, oracle)
	}, &quick.Config{MaxCount: 100, Rand: quickRand(r)})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDisjointWrites(t *testing.T) {
	fs := testFS(t, 8, 64)
	f := fs.Open("par")
	const workers = 16
	const chunk = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, chunk)
			for i := range buf {
				buf[i] = byte(w)
			}
			f.WriteAt(buf, int64(w*chunk))
		}(w)
	}
	wg.Wait()
	got := make([]byte, workers*chunk)
	f.ReadAt(got, 0)
	for w := 0; w < workers; w++ {
		for i := 0; i < chunk; i++ {
			if got[w*chunk+i] != byte(w) {
				t.Fatalf("byte %d of worker %d region = %d", i, w, got[w*chunk+i])
			}
		}
	}
}
