package collio

import (
	"reflect"
	"slices"
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

// stride returns n extents of length 1 at stride 2 from off: a run of
// short request extents, as coll_perf's rows are.
func stride(off int64, n int) []pfs.Extent {
	exts := make([]pfs.Extent, n)
	for i := range exts {
		exts[i] = pfs.Extent{Offset: off + 2*int64(i), Length: 1}
	}
	return exts
}

// Long bucket extents against many short request extents: the walk
// sums a run of request extents inside one bucket extent in one pass.
// Every case checks the walk against the naive per-bucket intersection
// and against the bytes worked out by hand.
func TestExtentIndexDenseRuns(t *testing.T) {
	// Bucket 0 is two extents with a gap between them, bucket 1 starts
	// after another gap, and bucket 2 touches bucket 1's end.
	buckets := [][]pfs.Extent{
		{{Offset: 0, Length: 100}, {Offset: 200, Length: 100}},
		{{Offset: 400, Length: 600}},
		{{Offset: 1000, Length: 100}},
	}
	idx := NewExtentIndex(buckets)
	for _, c := range []struct {
		name  string
		query []pfs.Extent
		want  []int64
	}{
		{"run of one", stride(10, 1), []int64{1, 0, 0}},
		{"run of two", stride(10, 2), []int64{2, 0, 0}},
		{"run of many", stride(400, 300), []int64{0, 300, 0}},
		{"run ending at a bucket extent's end", stride(91, 5), []int64{5, 0, 0}},
		{"run ending at a bucket's end, the next bucket adjacent", slices.Concat(stride(991, 5), stride(1000, 3)), []int64{0, 5, 3}},
		{"run reaching the end of the list", slices.Concat(stride(10, 3), stride(500, 40)), []int64{3, 40, 0}},
		{"straddle right after a run", slices.Concat(stride(410, 5), []pfs.Extent{{Offset: 990, Length: 20}}), []int64{0, 15, 10}},
		{"straddle out of a bucket extent into a gap", slices.Concat(stride(80, 5), []pfs.Extent{{Offset: 95, Length: 10}}, stride(210, 2)), []int64{12, 0, 0}},
		{"run starting in a gap between a bucket's extents", slices.Concat(stride(150, 20), stride(200, 4)), []int64{4, 0, 0}},
		{"run starting in a gap between buckets", slices.Concat(stride(310, 40), stride(410, 2)), []int64{0, 2, 0}},
		{"run crossing from a gap into a bucket", stride(310, 60), []int64{0, 15, 0}},
		{"extent from a gap into a bucket, then a run", slices.Concat([]pfs.Extent{{Offset: 390, Length: 20}}, stride(420, 8)), []int64{0, 18, 0}},
		{"runs in every bucket extent", slices.Concat(stride(0, 50), stride(200, 50), stride(400, 300), stride(1000, 50)), []int64{100, 300, 50}},
		{"past every bucket", stride(1100, 10), []int64{0, 0, 0}},
	} {
		got := overlapRow(t, idx, len(buckets), c.query)
		for b := range buckets {
			if want := pfs.TotalBytes(pfs.Intersect(c.query, buckets[b])); got[b] != want {
				t.Errorf("%s: bucket %d got %d, naive %d", c.name, b, got[b], want)
			}
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: overlaps = %v, want %v", c.name, got, c.want)
		}
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
