package core

import (
	"testing"

	"mcio/internal/collio"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/stats"
	"mcio/internal/workload"
)

// BenchmarkPlaceCollPerf plans the coll_perf request set of Figure 6 at
// the default scale (a 512³ array of 4-byte elements over 120 ranks,
// about 9k extents per rank) on the platform of its 16 MB point: 10
// nodes of 12 ranks, 16 targets, a 256 KiB collective buffer, each
// node's memory drawn around it with a σ of 800 KiB, and Msg_ind floored
// so the domains fit the nodes' slots. Placement walks every member
// rank's list against its group's partition leaves.
func BenchmarkPlaceCollPerf(b *testing.B) {
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
	extents := 0
	for i := range rs.Len() {
		extents += len(rs.List(i))
	}
	topo, err := mpi.BlockTopology(120, 12)
	if err != nil {
		b.Fatal(err)
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
	params.MsgInd = max(512<<10, c.TotalBytes()/max(slots, 1))
	params.MsgGroup = 8 * params.MsgInd
	fs := pfs.DefaultConfig(16)
	fs.StripeUnit = 16 << 10
	ctx := &collio.Context{Topo: topo, Machine: mc, Avail: avail, FS: fs, Params: params}
	rs.Union() // computed once per set, as a sweep does
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := s.PlanSet(ctx, rs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(extents), "ns/extent")
}
