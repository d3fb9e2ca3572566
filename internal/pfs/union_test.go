package pfs

import (
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"mcio/internal/stats"
)

// checkUnion asserts the Union contract on one input: the result equals
// NormalizeExtents of the concatenation, the lists are left as they were,
// and the result shares no memory with them in either direction.
func checkUnion(t *testing.T, lists [][]Extent) {
	t.Helper()
	var all []Extent
	saved := make([][]Extent, len(lists))
	for i, l := range lists {
		all = append(all, l...)
		saved[i] = append([]Extent(nil), l...)
	}
	want := NormalizeExtents(all)
	got := Union(lists)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Union(%v) = %v, want %v", lists, got, want)
	}
	for i := range lists {
		if !slices.Equal(lists[i], saved[i]) {
			t.Fatalf("Union modified list %d: %v, was %v", i, lists[i], saved[i])
		}
	}
	// Writing the result must not reach the lists, and writing the lists
	// must not reach the result.
	gotCopy := append([]Extent(nil), got...)
	for i := range got {
		got[i] = Extent{Offset: -1, Length: -1}
	}
	for i := range lists {
		if !slices.Equal(lists[i], saved[i]) {
			t.Fatalf("Union result aliases list %d", i)
		}
	}
	copy(got, gotCopy)
	for _, l := range lists {
		for k := range l {
			l[k] = Extent{Offset: -2, Length: -2}
		}
	}
	if !slices.Equal(got, gotCopy) {
		t.Fatal("Union result aliases an input list")
	}
	for i := range lists {
		copy(lists[i], saved[i])
	}
}

// FuzzUnionMatchesNormalize decodes byte triples (split, offset, length)
// into extent lists: a split byte divisible by 4 starts a new list. When
// the first byte is odd every list is normalized before the call, so the
// canonical fast paths are exercised as often as the normalizing ones.
func FuzzUnionMatchesNormalize(f *testing.F) {
	f.Add([]byte{0})                                     // no lists
	f.Add([]byte{0, 0, 3, 0, 4, 1, 0, 4, 0})             // empty and zero-length lists
	f.Add([]byte{0, 1, 9, 5, 1, 2, 5, 1, 0, 5})          // unsorted
	f.Add([]byte{1, 0, 3, 5, 0, 3, 5, 4, 3, 5})          // duplicate lists
	f.Add([]byte{1, 0, 2, 9, 0, 3, 9, 4, 5, 30})         // overlapping lists
	f.Add([]byte{1, 0, 0, 4, 0, 1, 4, 4, 2, 4, 1, 3, 4}) // adjacent lists
	f.Add([]byte{1, 0, 0, 11, 0, 1, 2, 1, 2, 2})         // one list swallows another
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		canonical := data[0]%2 == 1
		var lists [][]Extent
		var cur []Extent
		for i := 1; i+3 <= len(data); i += 3 {
			if data[i]%4 == 0 {
				lists = append(lists, cur)
				cur = nil
			}
			cur = append(cur, Extent{Offset: int64(data[i+1]) * 4, Length: int64(data[i+2]) % 12})
		}
		lists = append(lists, cur)
		if canonical {
			for i := range lists {
				lists[i] = NormalizeExtents(lists[i])
			}
		}
		checkUnion(t, lists)
	})
}

// Many lists of many extents take Union through several merge levels,
// including odd run counts that carry a run to the next level.
func TestUnionMatchesNormalizeRandom(t *testing.T) {
	r := stats.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		lists := make([][]Extent, r.Intn(40))
		for i := range lists {
			var l []Extent
			for k, n := 0, r.Intn(30); k < n; k++ {
				l = append(l, Extent{Offset: r.Int63n(2000), Length: r.Int63n(25)})
			}
			if r.Intn(3) > 0 {
				l = NormalizeExtents(l)
			}
			lists[i] = l
		}
		checkUnion(t, lists)
	}
}

// Concurrent calls each get their own pooled scratch.
func TestUnionConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := stats.NewRNG(seed)
			for trial := 0; trial < 50; trial++ {
				lists := make([][]Extent, 1+r.Intn(20))
				var all []Extent
				for i := range lists {
					for k, n := 0, r.Intn(20); k < n; k++ {
						lists[i] = append(lists[i], Extent{Offset: r.Int63n(5000), Length: 1 + r.Int63n(30)})
					}
					lists[i] = NormalizeExtents(lists[i])
					all = append(all, lists[i]...)
				}
				if got, want := Union(lists), NormalizeExtents(all); !reflect.DeepEqual(got, want) {
					t.Errorf("seed %d trial %d: Union = %v, want %v", seed, trial, got, want)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
}

// unionChain returns n one-extent lists, each overlapping the next, so
// their union is a single extent: the shape of a collective's per-rank
// lists over a contiguous file region.
func unionChain(n int) [][]Extent {
	lists := make([][]Extent, n)
	for i := range lists {
		lists[i] = []Extent{{Offset: int64(i) * 10, Length: 15}}
	}
	return lists
}

// A collection between calls must not change what Union allocates: its
// scratch is owned, not pooled, so the allocation count (and with it the
// heap a run reports) does not depend on when the collector ran. Two
// collections are what it takes to empty a sync.Pool.
func TestUnionAllocsSurviveGC(t *testing.T) {
	lists := unionChain(100_000)
	Union(lists) // grow the scratch once
	plain := testing.AllocsPerRun(5, func() { Union(lists) })
	afterGC := testing.AllocsPerRun(5, func() {
		runtime.GC()
		runtime.GC()
		Union(lists)
	})
	if plain != afterGC {
		t.Fatalf("Union allocates %v times per call, %v after two collections", plain, afterGC)
	}
}

// BenchmarkUnionSmallAfterLarge times a two-list Union once a
// million-list call has grown the scratch: the small call must pay for
// its own two slots, not for clearing the large call's million.
func BenchmarkUnionSmallAfterLarge(b *testing.B) {
	Union(unionChain(1 << 20))
	small := [][]Extent{{{Offset: 0, Length: 10}}, {{Offset: 5, Length: 10}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unionSink = Union(small)
	}
}

// unionSink keeps the benchmarked calls from being optimized away.
var unionSink []Extent

// ReleaseUnionScratch returns Union to its cold state: the next call
// grows its scratch again, as the first call of a process does, and so
// allocates more than a call that reuses the kept scratch.
func TestReleaseUnionScratch(t *testing.T) {
	lists := unionChain(10_000)
	Union(lists)
	kept := testing.AllocsPerRun(5, func() { Union(lists) })
	cold := testing.AllocsPerRun(5, func() {
		ReleaseUnionScratch()
		Union(lists)
	})
	if cold <= kept {
		t.Fatalf("Union allocates %v times after ReleaseUnionScratch, %v with its scratch kept", cold, kept)
	}
}
