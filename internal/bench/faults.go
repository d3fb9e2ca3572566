package bench

import (
	"fmt"
	"strings"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/faults"
	"mcio/internal/obs"
	"mcio/internal/sim"
	"mcio/internal/twophase"
)

// faultRates is the sweep of fault-rate multipliers: 0 (the inert
// control — must reproduce the clean run exactly) up to 4× the default
// MTBFs.
func faultRates() []float64 { return []float64{0, 0.5, 1, 2, 4} }

// gridPlan is one strategy's side of a fault grid: its plan, validated,
// and the plan's shape, which every run of the grid prices from. The
// memory-conscious strategy also keeps the recovery state its planning
// left; each run recovers on a fork of it, so the shared plan, shape
// and state stay the clean control every cell starts from.
type gridPlan struct {
	plan  *collio.Plan
	shape *collio.Shape
	state *core.RecoveryState // memory-conscious only
}

// planGrid plans and shapes strategy's side of a fault grid over rs;
// building the shape validates the plan.
func planGrid(ctx *collio.Context, rs *collio.RequestSet, strategy string) (*gridPlan, error) {
	g := &gridPlan{}
	var err error
	switch strategy {
	case "memory-conscious":
		g.plan, g.state, err = core.New().PlanWithStateSet(ctx, rs)
	case "two-phase":
		g.plan, err = twophase.New().PlanSet(ctx, rs)
	default:
		err = fmt.Errorf("bench: unknown strategy %q", strategy)
	}
	if err != nil {
		return nil, err
	}
	if g.shape, err = collio.BuildShapeSet(ctx, g.plan, rs); err != nil {
		return nil, err
	}
	return g, nil
}

// run prices op under spec's schedule with a fresh injector and a fresh
// fault handler: a Failover over a fork of the recovery state, or the
// baseline's stall-and-retry.
func (g *gridPlan) run(ctx *collio.Context, rs *collio.RequestSet, op collio.Op, opt sim.Options,
	spec faults.Spec) (*collio.FaultResult, error) {
	fplan, err := spec.Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
	if err != nil {
		return nil, err
	}
	var handler collio.FaultHandler
	if g.state != nil {
		handler = &core.Failover{State: g.state.Fork(), Detect: spec.DetectSeconds}
	} else {
		handler = twophase.NewStallRetry(ctx.Avail, spec.StallSeconds)
	}
	return collio.CostShape(ctx, g.plan, g.shape, rs, op, opt,
		collio.FaultEnv{Injector: faults.NewInjector(fplan), Handler: handler})
}

// faultCell is one cell of a fault grid: the label its ledger entries
// carry and the schedule it prices. spec draws the schedule from the
// run's seed, the fault horizon (4× the strategy's clean run, so
// schedules outlive recovery-extended runs) and the machine's node
// count.
type faultCell struct {
	name string
	spec func(seed uint64, horizon float64, nodes int) faults.Spec
}

// rateCells are the resilience sweep's cells: the default fault
// environment with every MTBF scaled by rate.
func rateCells(rates ...float64) []faultCell {
	cells := make([]faultCell, len(rates))
	for i, rate := range rates {
		cells[i] = faultCell{
			name: fmt.Sprintf("rate=%g", rate),
			spec: func(seed uint64, horizon float64, _ int) faults.Spec {
				return faults.DefaultSpec(seed, horizon).WithRate(rate)
			},
		}
	}
	return cells
}

// FaultPoint is one cell of a fault grid: a strategy priced under the
// cell's schedule, with its fault-free reference time.
type FaultPoint struct {
	cell       string // the cell's label, e.g. "rate=0.5"
	Strategy   string
	RefSeconds float64 // fault-free run, the overhead denominator
	Res        *collio.FaultResult
	Overlap    bool
}

// runFaultGrid prices op on p under every cell's schedule for both
// strategies and returns the points cell by cell, two-phase first
// within a cell. Each strategy is planned, validated and shaped once
// (planGrid); a fault-free reference per strategy comes first: it is
// every cell's overhead denominator and sets the fault horizon. The
// references run without p's observer, so an observed grid traces and
// counts its planning and cells only. The strategies, and then every
// (cell × strategy) run, are independent — each run prices the shared
// plan and shape with its own injector, handler and engine — so both
// fan out across the worker pool, collected by index.
func runFaultGrid(p *figurePoint, op collio.Op, cells []faultCell) ([]FaultPoint, error) {
	strategies := []string{"two-phase", "memory-conscious"}
	opt := p.cfg.options()
	opt.Trace = true
	seed, nodes := p.cfg.Seed, p.ctx.Topo.Nodes()
	ref := p.ctx
	if ref.Obs != nil {
		// The tracer numbers processes in registration order;
		// registering the strategies up front keeps an observed grid's
		// trace identical at any worker count.
		for _, strategy := range strategies {
			p.ctx.Obs.Tracer().PID(strategy)
		}
		unobserved := *ref
		unobserved.Obs = nil
		ref = &unobserved
	}
	plans := make([]*gridPlan, len(strategies))
	refs := make([]float64, len(strategies))
	err := ForEach(len(strategies), func(si int) error {
		g, err := planGrid(p.ctx, p.rs, strategies[si])
		if err != nil {
			return err
		}
		res, err := g.run(ref, p.rs, op, opt, faults.DefaultSpec(seed, 1).WithRate(0))
		if err != nil {
			return err
		}
		plans[si], refs[si] = g, res.Seconds
		return nil
	})
	if err != nil {
		return nil, err
	}

	points := make([]FaultPoint, len(cells)*len(strategies))
	err = ForEach(len(points), func(ci int) error {
		cell := cells[ci/len(strategies)]
		si := ci % len(strategies)
		strategy := strategies[si]
		res, err := plans[si].run(p.ctx, p.rs, op, opt, cell.spec(seed, refs[si]*4, nodes))
		if err != nil {
			return fmt.Errorf("bench %s: %s at %s: %w", p.cfg.Name, strategy, cell.name, err)
		}
		points[ci] = FaultPoint{
			cell: cell.name, Strategy: strategy, RefSeconds: refs[si],
			Res: res, Overlap: opt.Overlap,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// faultSweepRun prices the IOR write workload of Figure 7 under
// increasing fault rates for both strategies. Everything is a
// deterministic function of (scale, seed).
func faultSweepRun(scale int64, seed uint64) ([]FaultPoint, error) {
	cfg := Fig7Config(scale, seed)
	cfg.Name = "faults"
	wl, name := Fig7Workload(cfg)
	p, err := newPoint(cfg, wl, name, 16)
	if err != nil {
		return nil, err
	}
	return runFaultGrid(p, collio.Write, rateCells(faultRates()...))
}

// FaultSweep is the resilience experiment (mcio -exp faults): the IOR
// write workload of Figure 7 priced under increasing fault rates —
// node crashes, memory collapses, stragglers, OST errors, message
// faults — comparing the baseline's stall-and-retry against the
// memory-conscious strategy's remerge-based failover. Reported per
// (rate, strategy): achieved bandwidth, the overhead versus the
// fault-free run, time attributed to recovery, and the recovery-action
// counts.
func FaultSweep(scale int64, seed uint64) (*Table, error) {
	points, err := faultSweepRun(scale, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name: "resilience: IOR write under injected faults (120 ranks, 16 MB per aggregator)",
		Header: []string{"rate", "strategy", "MB/s", "overhead", "recovery s",
			"failovers", "stalls", "replayed", "ost retries", "events"},
	}
	for _, pt := range points {
		res := pt.Res
		events := 0
		for _, n := range res.Injected {
			events += n
		}
		t.Rows = append(t.Rows, []string{
			strings.TrimPrefix(pt.cell, "rate="),
			pt.Strategy,
			fmt.Sprintf("%.1f", res.Bandwidth/1e6),
			fmt.Sprintf("%+.1f%%", (res.Seconds/pt.RefSeconds-1)*100),
			fmt.Sprintf("%.4f", res.RecoverySeconds),
			fmt.Sprintf("%d", res.Failovers),
			fmt.Sprintf("%d", res.Stalls),
			fmt.Sprintf("%d", res.ReplayedRounds),
			fmt.Sprintf("%d", res.StorageRetries),
			fmt.Sprintf("%d", events),
		})
	}
	return t, nil
}

// ObserveFaults is Observe's resilience variant: one faulted op run of
// the Figure 7 workload per strategy at the given fault rate, with round
// tracing and the full observer attached, so the exported Chrome trace
// carries the recovery rounds/stall spans and the metrics snapshot the
// faults.*, sim.recovery_* and pfs/mpi counters.
func ObserveFaults(scale int64, seed uint64, memMB int, op collio.Op, rate float64) (*ObserveResult, error) {
	if rate < 0 {
		return nil, fmt.Errorf("bench: negative fault rate %g", rate)
	}
	cfg := Fig7Config(scale, seed)
	wl, name := Fig7Workload(cfg)
	p, err := newPoint(cfg, wl, name, memMB)
	if err != nil {
		return nil, err
	}
	p.ctx.Obs = obs.New()
	points, err := runFaultGrid(p, op, rateCells(rate))
	if err != nil {
		return nil, err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "observe faults: %s, %s, %d MB per aggregator, fault rate %g\n",
		p.name, op, p.memMB, rate)
	for _, pt := range points {
		res := pt.Res
		fmt.Fprintf(&b, "%s: %d rounds, %.4fs simulated (%.1f MB/s), %.4fs in recovery\n",
			pt.Strategy, len(res.Trace), res.Seconds, res.Bandwidth/1e6, res.RecoverySeconds)
		fmt.Fprintf(&b, "  failovers %d, stalls %d, replayed rounds %d, ost retries %d, messages delayed %d dropped %d\n",
			res.Failovers, res.Stalls, res.ReplayedRounds, res.StorageRetries,
			res.DelayedMessages, res.DroppedMessages)
		if len(res.Injected) > 0 {
			fmt.Fprintf(&b, "  injected: %v\n", res.Injected)
		}
		for _, line := range bindingTally(res.Trace) {
			fmt.Fprintf(&b, "  %s\n", line)
		}
	}
	return &ObserveResult{Obs: p.ctx.Obs, Summary: b.String()}, nil
}
