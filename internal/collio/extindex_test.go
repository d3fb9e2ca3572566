package collio

import (
	"reflect"
	"testing"
	"testing/quick"

	mrand "math/rand"

	"mcio/internal/pfs"
	"mcio/internal/stats"
)

// overlapRow queries idx for query as shape build and placement do,
// through RequestOverlapAppend on a one-request set, checks the sparse
// result's form (buckets ascending and in range, bytes positive) and
// spreads it into one entry per bucket of the n the index holds.
func overlapRow(t testing.TB, idx *ExtentIndex, n int, query []pfs.Extent) []int64 {
	t.Helper()
	rs := NewRequestSet([]RankRequest{{Rank: 0, Extents: query}})
	row := make([]int64, n)
	prev := -1
	for _, bb := range idx.RequestOverlapAppend(nil, rs, 0) {
		if bb.Bucket <= prev || bb.Bucket >= n || bb.Bytes <= 0 {
			t.Fatalf("overlap %+v after bucket %d of %d", bb, prev, n)
		}
		row[bb.Bucket], prev = bb.Bytes, bb.Bucket
	}
	return row
}

func TestExtentIndexBasic(t *testing.T) {
	idx := NewExtentIndex([][]pfs.Extent{
		{{Offset: 0, Length: 10}, {Offset: 20, Length: 10}},
		{{Offset: 40, Length: 20}},
	})
	got := overlapRow(t, idx, 2, []pfs.Extent{{Offset: 5, Length: 40}})
	// Bucket 0: bytes 5..10 and 20..30 = 15; bucket 1: 40..45 = 5.
	if !reflect.DeepEqual(got, []int64{15, 5}) {
		t.Fatalf("overlaps = %v", got)
	}
}

func TestExtentIndexNoOverlap(t *testing.T) {
	idx := NewExtentIndex([][]pfs.Extent{{{Offset: 100, Length: 10}}})
	got := overlapRow(t, idx, 1, []pfs.Extent{{Offset: 0, Length: 50}})
	if got[0] != 0 {
		t.Fatalf("overlaps = %v", got)
	}
}

func TestExtentIndexEmptyBuckets(t *testing.T) {
	idx := NewExtentIndex(nil)
	if got := overlapRow(t, idx, 0, []pfs.Extent{{Offset: 0, Length: 5}}); len(got) != 0 {
		t.Fatalf("overlaps = %v", got)
	}
}

func TestExtentIndexPanics(t *testing.T) {
	for name, buckets := range map[string][][]pfs.Extent{
		"overlapping buckets": {
			{{Offset: 0, Length: 10}},
			{{Offset: 5, Length: 10}},
		},
		"out of order": {
			{{Offset: 100, Length: 10}},
			{{Offset: 0, Length: 10}},
		},
		"empty extent": {
			{{Offset: 0, Length: 0}},
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			NewExtentIndex(buckets)
		}()
	}
}

// Property: the sparse walk agrees with the naive per-bucket Intersect.
func TestExtentIndexMatchesNaive(t *testing.T) {
	r := stats.NewRNG(79)
	err := quick.Check(func(seed uint64) bool {
		rr := stats.NewRNG(seed)
		// Build disjoint ascending buckets by slicing a region.
		var buckets [][]pfs.Extent
		cur := rr.Int63n(50)
		n := rr.Intn(6) + 1
		for i := 0; i < n; i++ {
			var exts []pfs.Extent
			m := rr.Intn(3) + 1
			for j := 0; j < m; j++ {
				cur += rr.Int63n(20) // gap
				length := rr.Int63n(30) + 1
				exts = append(exts, pfs.Extent{Offset: cur, Length: length})
				cur += length
			}
			buckets = append(buckets, exts)
		}
		var query []pfs.Extent
		for i := 0; i < rr.Intn(8)+1; i++ {
			query = append(query, pfs.Extent{Offset: rr.Int63n(int64(cur)), Length: rr.Int63n(60)})
		}
		idx := NewExtentIndex(buckets)
		got := overlapRow(t, idx, len(buckets), query)
		for b := range buckets {
			want := pfs.TotalBytes(pfs.Intersect(query, buckets[b]))
			if got[b] != want {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200, Rand: mrand.New(mrand.NewSource(int64(r.Uint64())))})
	if err != nil {
		t.Fatal(err)
	}
}
