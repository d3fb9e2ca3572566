package pfs

import (
	"reflect"
	"testing"
	"testing/quick"

	"mcio/internal/stats"
)

func TestNormalizeExtents(t *testing.T) {
	in := []Extent{
		{Offset: 30, Length: 10},
		{Offset: 0, Length: 10},
		{Offset: 10, Length: 5}, // adjacent to the first: merge
		{Offset: 32, Length: 3}, // inside the 30..40 extent
		{Offset: 50, Length: 0}, // empty: dropped
	}
	got := NormalizeExtents(in)
	want := []Extent{{Offset: 0, Length: 15}, {Offset: 30, Length: 10}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("NormalizeExtents = %v, want %v", got, want)
	}
}

func TestNormalizeExtentsPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NormalizeExtents([]Extent{{Offset: 0, Length: -1}})
}

func TestExtentHelpers(t *testing.T) {
	a := Extent{Offset: 0, Length: 10}
	b := Extent{Offset: 9, Length: 1}
	c := Extent{Offset: 10, Length: 5}
	if a.End() != 10 {
		t.Fatal("End")
	}
	if !a.Overlaps(b) || a.Overlaps(c) || !b.Overlaps(a) {
		t.Fatal("Overlaps")
	}
	if TotalBytes([]Extent{a, c}) != 15 {
		t.Fatal("TotalBytes")
	}
}

func TestMapExtentsContiguousSpansAllTargets(t *testing.T) {
	cfg := Config{Targets: 4, StripeUnit: 10, TargetBW: 1, NoncontigFactor: 1}
	// A single 80-byte extent covers two full stripe cycles: each target
	// gets one contiguous 20-byte object range in one request.
	acc := mapExpanded(t, cfg, []Extent{{Offset: 0, Length: 80}})
	if len(acc) != 4 {
		t.Fatalf("got %d targets, want 4", len(acc))
	}
	for _, a := range acc {
		if a.Bytes != 20 || a.Requests != 1 || !a.Contiguous {
			t.Fatalf("target %d: %+v, want 20 bytes / 1 contiguous request", a.Target, a)
		}
	}
}

func TestMapExtentsFragmented(t *testing.T) {
	cfg := Config{Targets: 2, StripeUnit: 10, TargetBW: 1, NoncontigFactor: 1}
	// Two extents both landing on target 0 (stripes 0 and 2), with a gap in
	// object space: 2 requests, noncontiguous.
	acc := mapExpanded(t, cfg, []Extent{
		{Offset: 0, Length: 5},
		{Offset: 20, Length: 5},
	})
	if len(acc) != 1 {
		t.Fatalf("got %d targets, want 1: %v", len(acc), acc)
	}
	a := acc[0]
	if a.Target != 0 || a.Bytes != 10 || a.Requests != 2 || a.Contiguous {
		t.Fatalf("access = %+v", a)
	}
}

func TestMapExtentsMergesAdjacentObjectRanges(t *testing.T) {
	cfg := Config{Targets: 2, StripeUnit: 10, TargetBW: 1, NoncontigFactor: 1}
	// Stripes 0 and 2 map to target 0 at object offsets 0..10 and 10..20:
	// adjacent in object space, so they merge into one request even though
	// they are 10 bytes apart in file space.
	acc := mapExpanded(t, cfg, []Extent{
		{Offset: 0, Length: 10},
		{Offset: 20, Length: 10},
	})
	if len(acc) != 1 || acc[0].Requests != 1 || !acc[0].Contiguous {
		t.Fatalf("object-adjacent stripes not merged: %v", acc)
	}
}

func TestMapExtentsEmpty(t *testing.T) {
	cfg := Config{Targets: 2, StripeUnit: 10, TargetBW: 1, NoncontigFactor: 1}
	if acc := mapExpanded(t, cfg, nil); len(acc) != 0 {
		t.Fatalf("Map(nil) = %v", acc)
	}
	if acc := mapExpanded(t, cfg, []Extent{{Offset: 5, Length: 0}}); len(acc) != 0 {
		t.Fatalf("Map(empty extent) = %v", acc)
	}
}

// Property: a Mapper conserves bytes and never reports more requests
// than stripe-unit crossings.
func TestMapExtentsConservation(t *testing.T) {
	r := stats.NewRNG(43)
	err := quick.Check(func(seed uint64) bool {
		rr := stats.NewRNG(seed)
		cfg := Config{
			Targets:         rr.Intn(8) + 1,
			StripeUnit:      int64(rr.Intn(50) + 1),
			TargetBW:        1,
			NoncontigFactor: 1,
		}
		var exts []Extent
		n := rr.Intn(10) + 1
		for i := 0; i < n; i++ {
			exts = append(exts, Extent{Offset: rr.Int63n(1000), Length: rr.Int63n(200)})
		}
		norm := NormalizeExtents(exts)
		acc := mapExpanded(t, cfg, exts)
		var gotBytes int64
		var gotReqs int
		for _, a := range acc {
			if a.Bytes <= 0 || a.Requests <= 0 {
				return false
			}
			gotBytes += a.Bytes
			gotReqs += a.Requests
		}
		if gotBytes != TotalBytes(norm) {
			return false
		}
		// Upper bound on requests: each extent crosses at most
		// len/su + 2 stripe units.
		var maxReqs int
		for _, e := range norm {
			maxReqs += int(e.Length/cfg.StripeUnit) + 2
		}
		return gotReqs <= maxReqs
	}, &quick.Config{MaxCount: 200, Rand: quickRand(r)})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: the per-target object ranges a Mapper reports agree with
// what WriteAt actually stores (bytes land on the computed targets).
func TestMapExtentsAgreesWithStorage(t *testing.T) {
	cfg := Config{Targets: 3, StripeUnit: 7, TargetBW: 1, NoncontigFactor: 1}
	fs, _ := NewFileSystem(cfg)
	f := fs.Open("agree")
	ext := Extent{Offset: 11, Length: 40}
	buf := make([]byte, ext.Length)
	for i := range buf {
		buf[i] = 0xAB
	}
	f.WriteAt(buf, ext.Offset)
	acc := mapExpanded(t, cfg, []Extent{ext})
	var total int64
	for _, a := range acc {
		obj := f.objects[a.Target]
		var stored int64
		for _, b := range obj {
			if b == 0xAB {
				stored++
			}
		}
		if stored != a.Bytes {
			t.Fatalf("target %d: stored %d bytes, the Mapper says %d", a.Target, stored, a.Bytes)
		}
		total += a.Bytes
	}
	if total != ext.Length {
		t.Fatalf("total mapped %d != extent length %d", total, ext.Length)
	}
}

func TestIntersect(t *testing.T) {
	a := []Extent{{0, 10}, {20, 10}}
	b := []Extent{{5, 20}}
	got := Intersect(a, b)
	want := []Extent{{5, 5}, {20, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	if Intersect(a, nil) != nil {
		t.Fatal("Intersect with empty should be nil")
	}
	// Identical sets intersect to themselves.
	if got := Intersect(a, a); !reflect.DeepEqual(got, NormalizeExtents(a)) {
		t.Fatalf("self-intersection = %v", got)
	}
}

func TestIntersectDisjoint(t *testing.T) {
	a := []Extent{{0, 5}}
	b := []Extent{{5, 5}}
	if got := Intersect(a, b); got != nil {
		t.Fatalf("adjacent extents intersect: %v", got)
	}
}

func TestClip(t *testing.T) {
	exts := []Extent{{0, 10}, {20, 10}}
	got := Clip(exts, 5, 25)
	want := []Extent{{5, 5}, {20, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Clip = %v, want %v", got, want)
	}
	if Clip(exts, 10, 10) != nil {
		t.Fatal("empty window should clip to nil")
	}
	if Clip(exts, 25, 10) != nil {
		t.Fatal("inverted window should clip to nil")
	}
}

func TestSpan(t *testing.T) {
	got := Span([]Extent{{20, 10}, {0, 5}})
	if got != (Extent{Offset: 0, Length: 30}) {
		t.Fatalf("Span = %v", got)
	}
	if Span(nil) != (Extent{}) {
		t.Fatal("Span of nothing should be zero")
	}
}

// Property: Intersect is commutative and its result is contained in both
// inputs with bytes never exceeding either side.
func TestIntersectProperties(t *testing.T) {
	r := stats.NewRNG(61)
	err := quick.Check(func(seed uint64) bool {
		rr := stats.NewRNG(seed)
		gen := func() []Extent {
			var out []Extent
			n := rr.Intn(6) + 1
			for i := 0; i < n; i++ {
				out = append(out, Extent{Offset: rr.Int63n(200), Length: rr.Int63n(50)})
			}
			return out
		}
		a, b := gen(), gen()
		ab, ba := Intersect(a, b), Intersect(b, a)
		if !reflect.DeepEqual(ab, ba) {
			return false
		}
		if TotalBytes(ab) > TotalBytes(NormalizeExtents(a)) ||
			TotalBytes(ab) > TotalBytes(NormalizeExtents(b)) {
			return false
		}
		// Containment: intersecting the result with either input is a no-op.
		return reflect.DeepEqual(Intersect(ab, a), ab) && reflect.DeepEqual(Intersect(ab, b), ab)
	}, &quick.Config{MaxCount: 200, Rand: quickRand(r)})
	if err != nil {
		t.Fatal(err)
	}
}
