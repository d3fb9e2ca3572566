package collio_test

import (
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/stats"
	"mcio/internal/twophase"
	"mcio/internal/workload"
)

// collPerfSet is the coll_perf request set of Figure 6 at the default
// scale, a 512³ array of 4-byte elements over 120 ranks (about 9k
// extents of 512 bytes per rank), with the array's bytes and the
// request extents it holds.
func collPerfSet(b *testing.B) (rs *collio.RequestSet, fileBytes int64, extents int) {
	grid, err := workload.DimsCreate(120)
	if err != nil {
		b.Fatal(err)
	}
	c := workload.CollPerf{ArrayDim: 512, ElemBytes: 4, Grid: grid}
	reqs, err := c.Requests()
	if err != nil {
		b.Fatal(err)
	}
	rs = collio.NewRequestSet(reqs)
	for i := range rs.Len() {
		extents += len(rs.List(i))
	}
	return rs, c.TotalBytes(), extents
}

// reportPerExtent reports the benchmark's time per request extent walked
// in one op.
func reportPerExtent(b *testing.B, extents int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(extents), "ns/extent")
}

// BenchmarkRequestOverlapAppendDense walks the coll_perf request set of
// Figure 6 against 128 equal domains tiling the file: hundreds of each
// rank's extents fall inside every domain it touches. One op queries
// every rank.
func BenchmarkRequestOverlapAppendDense(b *testing.B) {
	rs, fileBytes, extents := collPerfSet(b)
	size := fileBytes / 128
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
	reportPerExtent(b, extents)
}

// collPerfContext is the platform of Figure 6 at the default scale and
// the sweep's 16 MB point: 10 nodes of 12 ranks, 16 targets, a 256 KiB
// collective buffer, each node's memory drawn around it with a σ of
// 800 KiB, and Msg_ind floored so the domains fit the nodes' slots.
func collPerfContext(fileBytes int64) *collio.Context {
	topo, err := mpi.BlockTopology(120, 12)
	if err != nil {
		panic(err)
	}
	const buf = 256 << 10
	mc := machine.Testbed640().Scaled(topo.Nodes())
	r := stats.NewRNG(1)
	avail := make([]int64, topo.Nodes())
	slots := int64(0)
	for i := range avail {
		avail[i] = min(max(int64(buf+(800<<10)*r.Normal(0, 1)), 1<<10), mc.MemPerNode)
		slots += min(avail[i]/buf, 4)
	}
	params := collio.DefaultParams(buf)
	params.MsgInd = max(512<<10, fileBytes/max(slots, 1))
	params.MsgGroup = 8 * params.MsgInd
	fs := pfs.DefaultConfig(16)
	fs.StripeUnit = 16 << 10
	return &collio.Context{Topo: topo, Machine: mc, Avail: avail, FS: fs, Params: params}
}

// BenchmarkBuildShapeCollPerf builds the shapes of both strategies'
// plans for the coll_perf set of Figure 6 at one memory point: each
// walks every rank's request list against the plan's domains.
func BenchmarkBuildShapeCollPerf(b *testing.B) {
	rs, fileBytes, extents := collPerfSet(b)
	ctx := collPerfContext(fileBytes)
	var plans []*collio.Plan
	for _, s := range []collio.Strategy{twophase.New(), core.New()} {
		plan, err := s.PlanSet(ctx, rs)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, plan)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, plan := range plans {
			if _, err := collio.BuildShapeSet(ctx, plan, rs); err != nil {
				b.Fatal(err)
			}
		}
	}
	reportPerExtent(b, extents)
}
