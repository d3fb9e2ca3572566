package bench

import (
	"fmt"

	"mcio/internal/collio"
	"mcio/internal/faults"
	"mcio/internal/sim"
)

// FigExaFaultsConfig is the resilience counterpart of FigExaConfig: the
// million-rank IOR write priced under injected faults. The memory axis
// collapses to the paper sweep's middle point — the fault axes replace
// it. Only the few fault-touched nodes price per rank; the rest of the
// machine stays bundled per node, which is what makes recovery at this
// scale affordable.
func FigExaFaultsConfig(scale int64, seed uint64) Config {
	cfg := FigExaConfig(scale, seed)
	cfg.Name = "fig-exa-faults"
	cfg.MemMB = []int{16}
	return cfg
}

// exaFaultCell is one cell of the exascale fault grid.
type exaFaultCell struct {
	// Crash is the expected number of host-level events of each kind
	// (crashes, memory collapses) across the whole machine during the
	// fault-free run. A cluster-level budget, not a per-node rate: at
	// ten thousand nodes the bench-scale per-node MTBFs would inject
	// thousands of host faults and no run would survive.
	Crash float64
	// Frac is the expected fraction of nodes that straggle during the
	// run.
	Frac float64
	// Sev is the memory-collapse severity: the fraction of an
	// aggregator's buffer a collapse takes away (Spec.CollapseFraction).
	Sev float64
}

// exaFaultCells is the sweep grid. Collapse severity is inert without
// host events, so the crash=0 row keeps a single severity instead of
// duplicating cells.
func exaFaultCells() []exaFaultCell {
	var cells []exaFaultCell
	for _, crash := range []float64{0, 2, 8} {
		sevs := []float64{0.5, 0.9}
		if crash == 0 {
			sevs = []float64{0.9}
		}
		for _, frac := range []float64{0, 0.25} {
			for _, sev := range sevs {
				cells = append(cells, exaFaultCell{Crash: crash, Frac: frac, Sev: sev})
			}
		}
	}
	return cells
}

// exaFaultSpec builds the fault schedule for one grid cell. Only the
// three swept axes inject events; the bench-scale spec's per-entity
// background faults — message delays/drops per node, OST retry ladders
// per target — are zeroed because their event counts scale with
// machine size: at ten thousand nodes the background alone moves the
// run by hundreds of percent and drowns every swept axis (the
// bench-scale faults sweep covers those kinds). Controlling everything
// but the grid also makes the crash=0/frac=0 row an exact clean
// control, like rate 0 in that sweep.
func exaFaultSpec(seed uint64, horizon float64, nodes int, c exaFaultCell) faults.Spec {
	spec := faults.DefaultSpec(seed, horizon)
	spec.MsgDelayMTBF = 0
	spec.MsgDropMTBF = 0
	spec.OSTTransientMTBF = 0
	spec.OSTPermanentMTBF = 0
	// The horizon is 4× the fault-free run (schedules outlive
	// recovery-extended runs), so rates are calibrated to the first
	// quarter — the window the clean run actually occupies — or the grid
	// would deliver a quarter of what its knobs promise.
	window := horizon / 4
	if c.Crash <= 0 {
		spec.NodeCrashMTBF = 0
		spec.MemCollapseMTBF = 0
	} else {
		// Per-node MTBF such that the machine-wide expected event count
		// within the clean-run window is the cell's budget, per kind.
		spec.NodeCrashMTBF = float64(nodes) * window / c.Crash
		spec.MemCollapseMTBF = float64(nodes) * window / c.Crash
	}
	if c.Frac <= 0 {
		spec.StragglerMTBF = 0
	} else {
		// Episodes last horizon/4 == one clean-run window, so an
		// expected c.Frac episodes per node per window keeps roughly
		// that fraction of the machine straggling at any instant.
		spec.StragglerMTBF = window / c.Frac
	}
	spec.CollapseFraction = c.Sev
	return spec
}

// ExaFaultPoint is one cell of the exascale resilience sweep.
type ExaFaultPoint struct {
	Cell       exaFaultCell
	Strategy   string
	RefSeconds float64 // fault-free run, the overhead denominator
	Res        *collio.FaultResult
	Overlap    bool
}

// figExaFaultsRun prices the million-rank IOR write under the fault
// grid for both strategies. Everything is a deterministic function of
// (scale, seed), cell-parallel like the other sweeps.
func figExaFaultsRun(scale int64, seed uint64) ([]ExaFaultPoint, error) {
	return figExaFaultsRunCfg(FigExaFaultsConfig(scale, seed))
}

// figExaFaultsRunCfg is the configurable core of figExaFaultsRun; the
// per-rank cross-check test shrinks the topology through it.
func figExaFaultsRunCfg(cfg Config) ([]ExaFaultPoint, error) {
	wl, _ := FigExaWorkload(cfg)
	reqs, err := wl.Requests()
	if err != nil {
		return nil, err
	}
	rs := collio.NewRequestSet(reqs)
	plat, err := cfg.platform()
	if err != nil {
		return nil, err
	}
	ctx, err := cfg.context(plat, cfg.scaled(int64(cfg.MemMB[0])*MB), wl.TotalBytes())
	if err != nil {
		return nil, err
	}
	opt := sim.DefaultOptions()
	opt.Overlap = cfg.Overlap
	opt.NahOpt = cfg.nahOrDefault()
	opt.Trace = true

	// Fault-free references per strategy set the horizon (4× the clean
	// run) and the overhead denominator, as in the bench-scale sweep.
	strategies := []string{"two-phase", "memory-conscious"}
	refs := make([]float64, len(strategies))
	err = ForEach(len(strategies), func(si int) error {
		res, err := faultedRun(ctx, rs, strategies[si], opt, faults.DefaultSpec(cfg.Seed, 1).WithRate(0))
		if err != nil {
			return err
		}
		refs[si] = res.Seconds
		return nil
	})
	if err != nil {
		return nil, err
	}

	cells := exaFaultCells()
	points := make([]ExaFaultPoint, len(cells)*len(strategies))
	err = ForEach(len(points), func(ci int) error {
		cell := cells[ci/len(strategies)]
		si := ci % len(strategies)
		strategy := strategies[si]
		spec := exaFaultSpec(cfg.Seed, refs[si]*4, plat.topo.Nodes(), cell)
		res, err := faultedRun(ctx, rs, strategy, opt, spec)
		if err != nil {
			return fmt.Errorf("bench fig-exa-faults: %s at crash=%g strag=%g sev=%g: %w",
				strategy, cell.Crash, cell.Frac, cell.Sev, err)
		}
		points[ci] = ExaFaultPoint{
			Cell: cell, Strategy: strategy, RefSeconds: refs[si],
			Res: res, Overlap: opt.Overlap,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// FigExaFaults is the exascale resilience experiment (mcio bench
// fig-exa-faults): the Table 1 design point — one million ranks on ten
// thousand nodes — priced under a grid of crash budgets, straggler
// fractions and memory-collapse severities, on the analytical fast
// path. It answers the question the paper could only pose: does the
// memory-conscious strategy's remerge-based failover still beat
// stall-and-retry when the machine is large enough that something is
// always failing?
func FigExaFaults(scale int64, seed uint64) (*Table, error) {
	points, err := figExaFaultsRun(scale, seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name: "exascale resilience: IOR write at 1M ranks under injected faults",
		Header: []string{"crashes", "straggler", "collapse", "strategy", "MB/s",
			"overhead", "recovery s", "failovers", "stalls", "replayed", "events"},
	}
	for _, pt := range points {
		res := pt.Res
		events := 0
		for _, n := range res.Injected {
			events += n
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", pt.Cell.Crash),
			fmt.Sprintf("%g", pt.Cell.Frac),
			fmt.Sprintf("%g", pt.Cell.Sev),
			pt.Strategy,
			fmt.Sprintf("%.1f", res.Bandwidth/1e6),
			fmt.Sprintf("%+.1f%%", (res.Seconds/pt.RefSeconds-1)*100),
			fmt.Sprintf("%.4f", res.RecoverySeconds),
			fmt.Sprintf("%d", res.Failovers),
			fmt.Sprintf("%d", res.Stalls),
			fmt.Sprintf("%d", res.ReplayedRounds),
			fmt.Sprintf("%d", events),
		})
	}
	return t, nil
}
