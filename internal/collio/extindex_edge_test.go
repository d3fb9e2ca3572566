package collio

import (
	"reflect"
	"testing"

	"mcio/internal/pfs"
	"mcio/internal/stats"
)

// A bucket with no extents is legal (an aggregator whose domain nobody
// touches) and must simply collect zero bytes.
func TestExtentIndexEmptyBucketAmongOthers(t *testing.T) {
	idx := NewExtentIndex([][]pfs.Extent{
		{{Offset: 0, Length: 10}},
		{}, // empty bucket
		{{Offset: 20, Length: 10}},
	})
	got := overlapRow(t, idx, 3, []pfs.Extent{{Offset: 0, Length: 30}})
	if !reflect.DeepEqual(got, []int64{10, 0, 10}) {
		t.Fatalf("overlaps = %v, want [10 0 10]", got)
	}
}

// Zero-length query extents contribute nothing; the index must normalize
// them away rather than miscount or loop.
func TestExtentIndexZeroLengthQueryExtents(t *testing.T) {
	idx := NewExtentIndex([][]pfs.Extent{{{Offset: 10, Length: 10}}})
	got := overlapRow(t, idx, 1, []pfs.Extent{
		{Offset: 12, Length: 0},
		{Offset: 15, Length: 2},
		{Offset: 30, Length: 0},
	})
	if got[0] != 2 {
		t.Fatalf("overlaps = %v, want [2]", got)
	}
	if got := overlapRow(t, idx, 1, []pfs.Extent{{Offset: 12, Length: 0}}); got[0] != 0 {
		t.Fatalf("all-empty query overlaps = %v, want [0]", got)
	}
}

// Adjacency is not overlap: a query ending exactly where a bucket begins
// (and vice versa) contributes zero bytes to it.
func TestExtentIndexAdjacentNotOverlapping(t *testing.T) {
	idx := NewExtentIndex([][]pfs.Extent{
		{{Offset: 0, Length: 10}},
		{{Offset: 10, Length: 10}}, // starts exactly at bucket 0's end
	})
	if got := overlapRow(t, idx, 2, []pfs.Extent{{Offset: 5, Length: 5}}); got[0] != 5 || got[1] != 0 {
		t.Fatalf("query ending at boundary: overlaps = %v, want [5 0]", got)
	}
	if got := overlapRow(t, idx, 2, []pfs.Extent{{Offset: 10, Length: 3}}); got[0] != 0 || got[1] != 3 {
		t.Fatalf("query starting at boundary: overlaps = %v, want [0 3]", got)
	}
	if got := overlapRow(t, idx, 2, []pfs.Extent{{Offset: 20, Length: 5}}); got[0] != 0 || got[1] != 0 {
		t.Fatalf("query past all buckets: overlaps = %v, want [0 0]", got)
	}
}

// RequestOverlapAppend appends after what dst holds, leaving it as it
// was, and writes into dst's spare capacity instead of allocating.
func TestRequestOverlapAppendReusesScratch(t *testing.T) {
	idx := NewExtentIndex([][]pfs.Extent{
		{{Offset: 0, Length: 10}},
		{{Offset: 20, Length: 10}},
	})
	rs := NewRequestSet([]RankRequest{
		{Rank: 0, Extents: []pfs.Extent{{Offset: 0, Length: 30}}},
		{Rank: 1, Extents: []pfs.Extent{{Offset: 25, Length: 100}}},
	})
	dst := idx.RequestOverlapAppend(nil, rs, 0)
	if !reflect.DeepEqual(dst, []BucketBytes{{0, 10}, {1, 10}}) {
		t.Fatalf("first query = %v", dst)
	}
	p := &dst[0]
	dst = idx.RequestOverlapAppend(dst[:0], rs, 1)
	if &dst[0] != p {
		t.Fatal("second query reallocated instead of reusing scratch")
	}
	if !reflect.DeepEqual(dst, []BucketBytes{{1, 5}}) {
		t.Fatalf("second query = %v", dst)
	}
	prefix := []BucketBytes{{7, -1}}
	if got := idx.RequestOverlapAppend(prefix, rs, 1); !reflect.DeepEqual(got, []BucketBytes{{7, -1}, {1, 5}}) {
		t.Fatalf("append after a prefix = %v", got)
	}
	if n := testing.AllocsPerRun(10, func() { dst = idx.RequestOverlapAppend(dst[:0], rs, 0) }); n != 0 {
		t.Fatalf("query into spare capacity allocated %v times", n)
	}
}

// Unnormalized queries (overlapping, unsorted, empty extents) are
// normalized by the request set and must match the canonical answer.
func TestOverlapBytesUnnormalizedQuery(t *testing.T) {
	idx := NewExtentIndex([][]pfs.Extent{
		{{Offset: 0, Length: 50}},
		{{Offset: 60, Length: 50}},
	})
	messy := []pfs.Extent{
		{Offset: 40, Length: 30}, // spans the gap
		{Offset: 0, Length: 20},  // out of order
		{Offset: 10, Length: 20}, // overlaps previous
		{Offset: 5, Length: 0},   // empty
	}
	canonical := pfs.NormalizeExtents(messy)
	if got, want := overlapRow(t, idx, 2, messy), overlapRow(t, idx, 2, canonical); !reflect.DeepEqual(got, want) {
		t.Fatalf("messy %v != canonical %v", got, want)
	}
}

// benchIndex builds a coll_perf-like index: many disjoint bucket extents
// and a normalized interleaved query.
func benchIndex(buckets, extsPer int) (*ExtentIndex, []pfs.Extent) {
	r := stats.NewRNG(11)
	var all [][]pfs.Extent
	var cur int64
	for b := 0; b < buckets; b++ {
		var exts []pfs.Extent
		for e := 0; e < extsPer; e++ {
			cur += r.Int63n(64) + 1
			length := r.Int63n(256) + 1
			exts = append(exts, pfs.Extent{Offset: cur, Length: length})
			cur += length
		}
		all = append(all, exts)
	}
	var query []pfs.Extent
	for off := int64(0); off < cur; off += 512 {
		query = append(query, pfs.Extent{Offset: off, Length: 200})
	}
	return NewExtentIndex(all), query
}

func BenchmarkRequestOverlapAppend(b *testing.B) {
	idx, query := benchIndex(64, 16)
	rs := NewRequestSet([]RankRequest{{Rank: 0, Extents: query}})
	var scratch []BucketBytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = idx.RequestOverlapAppend(scratch[:0], rs, 0)
	}
}
