package mcio

// Benchmarks regenerating each table and figure of the paper's evaluation,
// plus micro-benchmarks of the load-bearing machinery. The figure
// benchmarks report the memory-conscious strategy's mean improvement over
// two-phase (improve_pct) alongside the simulated baseline bandwidth at
// the scarcest sweep point — the quantities the paper's figures plot.
//
//	go test -bench=. -benchmem
//
// benchScale divides the paper's byte sizes (see internal/bench); the
// benchmarks run at a high scale to stay fast.

import (
	"testing"

	"mcio/internal/bench"
	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/datatype"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/twophase"
	"mcio/internal/workload"
)

const benchScale = 256

// BenchmarkTable1 regenerates the paper's Table 1 (exascale vs 2010
// design points).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(machine.Table1()) == 0 {
			b.Fatal("empty table")
		}
	}
}

func benchFigure(b *testing.B, name string) {
	b.Helper()
	e, err := bench.Lookup(bench.ViewLedger, name)
	if err != nil {
		b.Fatal(err)
	}
	var s *bench.Series
	for i := 0; i < b.N; i++ {
		cfg, wl, wlName, err := e.Figure(benchScale, 42)
		if err != nil {
			b.Fatal(err)
		}
		if s, err = bench.RunSweep(cfg, wl, wlName); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.Improvement("write")*100, "improveW_pct")
	b.ReportMetric(s.Improvement("read")*100, "improveR_pct")
	if p := s.Points; len(p) > 0 {
		b.ReportMetric(p[0].MBps, "base2MB_MBps")
	}
}

// BenchmarkFig6 regenerates Figure 6: coll_perf write/read bandwidth vs
// per-aggregator memory at 120 processes, two-phase vs memory-conscious.
func BenchmarkFig6(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7 regenerates Figure 7: IOR bandwidth vs per-aggregator
// memory at 120 processes.
func BenchmarkFig7(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8: IOR bandwidth vs per-aggregator
// memory at 1080 processes.
func BenchmarkFig8(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkAblationGrouping prices the contribution of aggregation-group
// division (§3.1).
func BenchmarkAblationGrouping(b *testing.B) { benchAblation(b, bench.AblationGrouping) }

// BenchmarkAblationNah sweeps the per-host aggregator limit N_ah.
func BenchmarkAblationNah(b *testing.B) { benchAblation(b, bench.AblationNah) }

// BenchmarkAblationSigma sweeps the availability variance.
func BenchmarkAblationSigma(b *testing.B) { benchAblation(b, bench.AblationSigma) }

// BenchmarkAblationOverlap prices phase pipelining for both strategies.
func BenchmarkAblationOverlap(b *testing.B) { benchAblation(b, bench.AblationOverlap) }

// BenchmarkAblationAggsPerNode compares static multi-aggregator baselines
// with dynamic placement.
func BenchmarkAblationAggsPerNode(b *testing.B) { benchAblation(b, bench.AblationAggsPerNode) }

func benchAblation(b *testing.B, run func(int64, uint64) (*bench.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := run(benchScale, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the machinery ---

func benchContext(b *testing.B, ranks, perNode int) (*collio.Context, []collio.RankRequest) {
	b.Helper()
	topo, err := mpi.BlockTopology(ranks, perNode)
	if err != nil {
		b.Fatal(err)
	}
	mc := machine.Testbed640().Scaled(topo.Nodes())
	avail := make([]int64, topo.Nodes())
	for i := range avail {
		avail[i] = int64((i%5)+1) * (1 << 20)
	}
	params := collio.DefaultParams(1 << 20)
	params.MsgInd = 4 << 20
	params.MsgGroup = 32 << 20
	ctx := &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   avail,
		FS:      pfs.DefaultConfig(16),
		Params:  params,
	}
	w := workload.IOR{Ranks: ranks, BlockSize: 1 << 20, TransferSize: 1 << 20, Segments: 4}
	reqs, err := w.Requests()
	if err != nil {
		b.Fatal(err)
	}
	return ctx, reqs
}

// BenchmarkPlanTwoPhase measures the baseline planner at 120 ranks.
func BenchmarkPlanTwoPhase(b *testing.B) {
	ctx, reqs := benchContext(b, 120, 12)
	s := twophase.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Plan(ctx, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanMemoryConscious measures the full memory-conscious planner
// (groups, partition tree, remerge, placement) at 120 ranks.
func BenchmarkPlanMemoryConscious(b *testing.B) {
	ctx, reqs := benchContext(b, 120, 12)
	s := core.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Plan(ctx, reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCost measures the round-pricing executor for a planned
// operation at 120 ranks.
func BenchmarkCost(b *testing.B) {
	ctx, reqs := benchContext(b, 120, 12)
	rs := collio.NewRequestSet(reqs)
	plan, err := core.New().PlanSet(ctx, rs)
	if err != nil {
		b.Fatal(err)
	}
	opt := sim.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := collio.CostSet(ctx, plan, rs, collio.Write, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPartitionTree measures recursive-bisection tree construction
// over a megabyte-scale region.
func BenchmarkPartitionTree(b *testing.B) {
	exts := []pfs.Extent{{Offset: 0, Length: 1 << 30}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildTree(exts, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubarrayFlatten measures 3-D subarray flattening (the
// coll_perf hot path).
func BenchmarkSubarrayFlatten(b *testing.B) {
	s := datatype.Subarray{
		Sizes:     []int64{256, 256, 256},
		Subsizes:  []int64{64, 64, 64},
		Starts:    []int64{32, 32, 32},
		ElemBytes: 4,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.Flatten()) == 0 {
			b.Fatal("empty flatten")
		}
	}
}

// BenchmarkStripedWrite measures the striped file store's data path.
func BenchmarkStripedWrite(b *testing.B) {
	fs, err := pfs.NewFileSystem(pfs.DefaultConfig(16))
	if err != nil {
		b.Fatal(err)
	}
	f := fs.Open("bench")
	buf := make([]byte, 4<<20)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecRoundTrip measures the real data path: plan + byte
// movement through the runtime onto the striped store.
func BenchmarkExecRoundTrip(b *testing.B) {
	ctx, reqs := benchContext(b, 24, 4)
	rs := collio.NewRequestSet(reqs)
	plan, err := core.New().PlanSet(ctx, rs)
	if err != nil {
		b.Fatal(err)
	}
	bufs := make([][]byte, rs.Len())
	for r := range bufs {
		bufs[r] = make([]byte, pfs.TotalBytes(rs.List(r)))
	}
	total := rs.TotalBytes()
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := pfs.NewFileSystem(ctx.FS)
		if err != nil {
			b.Fatal(err)
		}
		if err := collio.Exec(ctx, plan, rs, bufs, fs.Open("exec-bench"), collio.Write); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMotivation prices independent vs collective I/O across
// interleaving granularities (the paper's §2 rationale).
func BenchmarkMotivation(b *testing.B) { benchAblation(b, bench.Motivation) }

// BenchmarkScaling runs the weak-scaling sweep (120 to 2160 processes).
func BenchmarkScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ScalingSweep(benchScale, 42, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTuner runs the parameter auto-tuner grid on the Figure 7
// workload.
func BenchmarkTuner(b *testing.B) {
	cfg := bench.Fig7Config(benchScale, 42)
	cfg.MemMB = []int{16}
	wl, _ := bench.Fig7Workload(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.TuneWorkload(cfg, wl); err != nil {
			b.Fatal(err)
		}
	}
}
