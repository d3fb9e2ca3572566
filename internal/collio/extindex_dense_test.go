package collio_test

import (
	"testing"

	"mcio/internal/collio"
	"mcio/internal/pfs"
	"mcio/internal/workload"
)

// BenchmarkRequestOverlapAppendDense walks the coll_perf request set of
// Figure 6 at the default scale, a 512³ array of 4-byte elements over
// 120 ranks (about 9k extents of 512 bytes per rank), against 128 equal
// domains tiling the file: hundreds of each rank's extents fall inside
// every domain it touches. One op queries every rank.
func BenchmarkRequestOverlapAppendDense(b *testing.B) {
	grid, err := workload.DimsCreate(120)
	if err != nil {
		b.Fatal(err)
	}
	c := workload.CollPerf{ArrayDim: 512, ElemBytes: 4, Grid: grid}
	reqs, err := c.Requests()
	if err != nil {
		b.Fatal(err)
	}
	rs := collio.NewRequestSet(reqs)
	size := c.TotalBytes() / 128
	buckets := make([][]pfs.Extent, 128)
	for d := range buckets {
		buckets[d] = []pfs.Extent{{Offset: int64(d) * size, Length: size}}
	}
	idx := collio.NewExtentIndex(buckets)
	var scratch []collio.BucketBytes
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i := range rs.Len() {
			scratch = idx.RequestOverlapAppend(scratch[:0], rs, i)
		}
	}
}
