package bench

import (
	"fmt"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/obs/analyze"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/stats"
	"mcio/internal/twophase"
	"mcio/internal/workload"
)

// TrajectoryPoint is one design point of the Table 1 trajectory: both
// strategies priced on the interpolated machine at parameter t.
type TrajectoryPoint struct {
	T          float64
	MemPerCore int64
	Results    map[string]*collio.CostResult // strategy name -> priced run
	Overlap    bool
}

// trajectoryRun prices both strategies on machine design points
// interpolated along the paper's Table 1 trajectory from the 2010
// petascale machine (t=0) to the projected 2018 exascale machine (t=1).
// The workload and node count are held fixed; only the per-node
// resource ratios change — memory per core shrinking ~120x along the
// way — so the sweep shows where on the road to exascale
// memory-conscious placement starts to matter.
func trajectoryRun(scale int64, seed uint64) ([]TrajectoryPoint, error) {
	const (
		nodes        = 16
		ranksPerNode = 12
		ranks        = nodes * ranksPerNode
	)
	r := stats.NewRNG(seed)
	zs := make([]float64, nodes)
	for i := range zs {
		zs[i] = r.Normal(0, 1)
	}
	// Design points are independent simulations; fan them across the
	// worker pool, collected by index so the table order never changes.
	ts := []float64{0, 0.25, 0.5, 0.75, 1}
	points := make([]TrajectoryPoint, len(ts))
	err := ForEach(len(ts), func(pi int) error {
		tt := ts[pi]
		mc := machine.Interpolate(tt).Scaled(nodes)
		mc.NetLatency /= float64(scale)

		// The aggregation budget tracks the design point: a few cores'
		// worth of the node's memory, scaled like everything else.
		aggMem := 4 * mc.MemPerCore() / scale
		if aggMem < 1 {
			aggMem = 1
		}
		topo, err := mpi.BlockTopology(ranks, ranksPerNode)
		if err != nil {
			return err
		}
		avail := make([]int64, nodes)
		for i := range avail {
			v := int64(float64(aggMem) * (1 + zs[i]))
			if v < aggMem/8 {
				v = aggMem / 8
			}
			if v > mc.MemPerNode {
				v = mc.MemPerNode
			}
			avail[i] = v
		}
		fsCfg := pfs.DefaultConfig(16)
		fsCfg.StripeUnit = maxI64(1, (1<<20)/scale)
		fsCfg.ReqOverhead /= float64(scale)
		fsCfg.TargetBW = mc.IOBandwidth / float64(fsCfg.Targets) / float64(mc.Nodes/nodes+1)

		params := collio.DefaultParams(aggMem)
		params.MsgInd = 4 * aggMem
		params.MsgGroup = 32 * aggMem
		ctx := &collio.Context{Topo: topo, Machine: mc, Avail: avail, FS: fsCfg, Params: params}

		w := workload.IOR{Ranks: ranks, BlockSize: 4 * aggMem, TransferSize: 4 * aggMem, Segments: 4}
		reqs, err := w.Requests()
		if err != nil {
			return err
		}
		opt := sim.DefaultOptions()
		opt.Trace = true
		pt := TrajectoryPoint{T: tt, MemPerCore: mc.MemPerCore(),
			Results: map[string]*collio.CostResult{}, Overlap: opt.Overlap}
		rs := collio.NewRequestSet(reqs)
		for _, s := range []collio.Strategy{twophase.New(), core.New()} {
			plan, err := s.PlanSet(ctx, rs)
			if err != nil {
				return err
			}
			res, err := collio.CostSet(ctx, plan, rs, collio.Write, opt)
			if err != nil {
				return err
			}
			pt.Results[s.Name()] = res
		}
		points[pi] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// Trajectory renders the trajectory sweep as the paper-style table:
// bandwidth and paging per design point.
func Trajectory(scale int64, seed uint64) (*Table, error) {
	points, err := trajectoryRun(scale, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name: "table-1 trajectory: petascale (t=0) to exascale (t=1), IOR write MB/s",
		Header: []string{
			"t", "mem/core", "2ph write", "mc write", "improvement", "2ph paged",
		},
	}
	for _, pt := range points {
		base, mcio := pt.Results["two-phase"], pt.Results["memory-conscious"]
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", pt.T),
			fmtBytes(pt.MemPerCore),
			fmt.Sprintf("%.1f", base.Bandwidth/1e6),
			fmt.Sprintf("%.1f", mcio.Bandwidth/1e6),
			fmt.Sprintf("%+.1f%%", (mcio.Bandwidth/base.Bandwidth-1)*100),
			fmt.Sprintf("%d", base.PagedAggregators),
		})
	}
	return t, nil
}

// TrajectoryBlame renders the same sweep through the critical-path
// analyzer: for each design point and strategy, the share of the run's
// simulated wall time attributed to each phase. Reading down a column
// shows the bottleneck migrating as memory per core shrinks — shuffle-
// dominated at t=0, paging-dominated for the baseline near t=1.
func TrajectoryBlame(scale int64, seed uint64) (*Table, error) {
	points, err := trajectoryRun(scale, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:   "trajectory critical-path blame: share of simulated wall time per phase",
		Header: []string{"t", "strategy", "wall s"},
	}
	for _, phase := range analyze.Phases() {
		t.Header = append(t.Header, phase)
	}
	for _, pt := range points {
		for _, strategy := range []string{"two-phase", "memory-conscious"} {
			res := pt.Results[strategy]
			b := analyze.BlameFromTrace(res.Trace, pt.Overlap)
			row := []string{
				fmt.Sprintf("%.2f", pt.T),
				strategy,
				fmt.Sprintf("%.4f", res.Seconds),
			}
			for _, phase := range analyze.Phases() {
				share := 0.0
				if res.Seconds > 0 {
					share = b[phase] / res.Seconds * 100
				}
				row = append(row, fmt.Sprintf("%.1f%%", share))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/float64(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/float64(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/float64(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
