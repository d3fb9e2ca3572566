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

// faultedRun prices one strategy under one fault schedule.
func faultedRun(ctx *collio.Context, rs *collio.RequestSet, strategy string,
	opt sim.Options, spec faults.Spec) (*collio.FaultResult, error) {
	plan, inj, handler, err := faultedSetup(ctx, rs, strategy, spec)
	if err != nil {
		return nil, err
	}
	return collio.CostWithFaultsSet(ctx, plan, rs, collio.Write, opt, inj, handler)
}

// faultedSetup builds what one faulted run prices: the strategy's plan,
// an injector over spec's schedule and the strategy's fault handler. For
// the memory-conscious strategy the plan is rebuilt per run — recovery
// mutates its partition trees — while the baseline's static plan is
// reusable; both are deterministic functions of (cfg, seed, rate).
func faultedSetup(ctx *collio.Context, rs *collio.RequestSet, strategy string,
	spec faults.Spec) (*collio.Plan, *faults.Injector, collio.FaultHandler, error) {
	fplan, err := spec.Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
	if err != nil {
		return nil, nil, nil, err
	}
	var plan *collio.Plan
	var handler collio.FaultHandler
	switch strategy {
	case "memory-conscious":
		s := core.New()
		p, state, err := s.PlanWithStateSet(ctx, rs)
		if err != nil {
			return nil, nil, nil, err
		}
		plan = p
		handler = &core.Failover{State: state, Detect: spec.DetectSeconds}
	case "two-phase":
		p, err := twophase.New().PlanSet(ctx, rs)
		if err != nil {
			return nil, nil, nil, err
		}
		plan = p
		handler = twophase.NewStallRetry(ctx.Avail, spec.StallSeconds)
	default:
		return nil, nil, nil, fmt.Errorf("bench: unknown strategy %q", strategy)
	}
	if err := plan.ValidateSet(rs); err != nil {
		return nil, nil, nil, err
	}
	return plan, faults.NewInjector(fplan), handler, nil
}

// FaultPoint is one cell of the resilience sweep: a strategy priced at
// a fault-rate multiplier, with its fault-free reference time.
type FaultPoint struct {
	Rate       float64
	Strategy   string
	RefSeconds float64 // fault-free run, the overhead denominator
	Res        *collio.FaultResult
	Overlap    bool
}

// faultSweepRun prices the IOR write workload of Figure 7 under
// increasing fault rates for both strategies. Everything is a
// deterministic function of (scale, seed).
func faultSweepRun(scale int64, seed uint64) ([]FaultPoint, error) {
	cfg := Fig7Config(scale, seed)
	cfg.Name = "faults"
	cfg.MemMB = []int{16}
	wl, _ := Fig7Workload(cfg)
	reqs, err := wl.Requests()
	if err != nil {
		return nil, err
	}
	rs := collio.NewRequestSet(reqs)
	plat, err := cfg.platform()
	if err != nil {
		return nil, err
	}
	ctx, err := cfg.context(plat, cfg.scaled(16*MB), wl.TotalBytes())
	if err != nil {
		return nil, err
	}
	opt := sim.DefaultOptions()
	opt.Overlap = cfg.Overlap
	opt.NahOpt = cfg.nahOrDefault()
	opt.Trace = true

	// Fault-free reference per strategy: the overhead denominator and the
	// fault horizon (schedules span 4× the clean run so mid-operation
	// faults actually land mid-operation). The two references and then
	// every (rate × strategy) cell are independent runs — each rebuilds
	// its own plan, injector and engine from the shared read-only ctx —
	// so both fan out across the worker pool, collected by index.
	strategies := []string{"two-phase", "memory-conscious"}
	refs := make([]float64, len(strategies))
	err = ForEach(len(strategies), func(si int) error {
		res, err := faultedRun(ctx, rs, strategies[si], opt, faults.DefaultSpec(seed, 1).WithRate(0))
		if err != nil {
			return err
		}
		refs[si] = res.Seconds
		return nil
	})
	if err != nil {
		return nil, err
	}

	rates := faultRates()
	points := make([]FaultPoint, len(rates)*len(strategies))
	err = ForEach(len(points), func(ci int) error {
		rate := rates[ci/len(strategies)]
		si := ci % len(strategies)
		strategy := strategies[si]
		spec := faults.DefaultSpec(seed, refs[si]*4).WithRate(rate)
		res, err := faultedRun(ctx, rs, strategy, opt, spec)
		if err != nil {
			return fmt.Errorf("bench faults: %s at rate %g: %w", strategy, rate, err)
		}
		points[ci] = FaultPoint{
			Rate: rate, Strategy: strategy, RefSeconds: refs[si],
			Res: res, Overlap: opt.Overlap,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
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
			fmt.Sprintf("%g", pt.Rate),
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

// ObserveFaults is Observe's resilience variant: one faulted run of the
// Figure 7 workload per strategy at the given fault rate, with round
// tracing and the full observer attached, so the exported Chrome trace
// carries the recovery rounds/stall spans and the metrics snapshot the
// faults.*, sim.recovery_* and pfs/mpi counters.
func ObserveFaults(scale int64, seed uint64, memMB int, op collio.Op, rate float64) (*ObserveResult, error) {
	if rate < 0 {
		return nil, fmt.Errorf("bench: negative fault rate %g", rate)
	}
	p, err := newPoint(fig7, Args{Scale: scale, Seed: seed, MemMB: memMB})
	if err != nil {
		return nil, err
	}
	ctx, rs := p.ctx, p.rs
	ctx.Obs = obs.New()
	opt := sim.DefaultOptions()
	opt.Trace = true
	opt.Overlap = p.cfg.Overlap
	opt.NahOpt = p.cfg.nahOrDefault()

	var b strings.Builder
	fmt.Fprintf(&b, "observe faults: %s, %s, %d MB per aggregator, fault rate %g\n",
		p.name, op, p.memMB, rate)
	for _, strategy := range []string{"two-phase", "memory-conscious"} {
		// Clean reference for the horizon, without tracing noise.
		refCtx := *ctx
		refCtx.Obs = nil
		refRes, err := faultedRun(&refCtx, rs, strategy, opt, faults.DefaultSpec(seed, 1).WithRate(0))
		if err != nil {
			return nil, err
		}
		spec := faults.DefaultSpec(seed, refRes.Seconds*4).WithRate(rate)
		res, err := faultedRun(ctx, rs, strategy, opt, spec)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%s: %d rounds, %.4fs simulated (%.1f MB/s), %.4fs in recovery\n",
			strategy, len(res.Trace), res.Seconds, res.Bandwidth/1e6, res.RecoverySeconds)
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
	return &ObserveResult{Obs: ctx.Obs, Summary: b.String()}, nil
}
