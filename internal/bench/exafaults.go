package bench

import (
	"fmt"

	"mcio/internal/collio"
	"mcio/internal/faults"
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

// exaFaultCells is the sweep grid. Each cell sets three axes:
//
//   - crash, the expected number of host-level events of each kind
//     (crashes, memory collapses) across the whole machine during the
//     fault-free run. A cluster-level budget, not a per-node rate: at ten
//     thousand nodes the bench-scale per-node MTBFs would inject
//     thousands of host faults and no run would survive;
//   - strag, the expected fraction of nodes that straggle during the run;
//   - sev, the memory-collapse severity: the fraction of an aggregator's
//     buffer a collapse takes away (Spec.CollapseFraction).
//
// Collapse severity is inert without host events, so the crash=0 row
// keeps a single severity instead of duplicating cells.
func exaFaultCells() []faultCell {
	var cells []faultCell
	for _, crash := range []float64{0, 2, 8} {
		sevs := []float64{0.5, 0.9}
		if crash == 0 {
			sevs = []float64{0.9}
		}
		for _, frac := range []float64{0, 0.25} {
			for _, sev := range sevs {
				cells = append(cells, faultCell{
					name: fmt.Sprintf("crash=%g,strag=%g,sev=%g", crash, frac, sev),
					spec: func(seed uint64, horizon float64, nodes int) faults.Spec {
						return exaFaultSpec(seed, horizon, nodes, crash, frac, sev)
					},
				})
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
// but the grid also makes the crash=0/strag=0 row an exact clean
// control, like rate 0 in that sweep.
func exaFaultSpec(seed uint64, horizon float64, nodes int, crash, frac, sev float64) faults.Spec {
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
	if crash <= 0 {
		spec.NodeCrashMTBF = 0
		spec.MemCollapseMTBF = 0
	} else {
		// Per-node MTBF such that the machine-wide expected event count
		// within the clean-run window is the cell's budget, per kind.
		spec.NodeCrashMTBF = float64(nodes) * window / crash
		spec.MemCollapseMTBF = float64(nodes) * window / crash
	}
	if frac <= 0 {
		spec.StragglerMTBF = 0
	} else {
		// Episodes last horizon/4 == one clean-run window, so an
		// expected frac episodes per node per window keeps roughly
		// that fraction of the machine straggling at any instant.
		spec.StragglerMTBF = window / frac
	}
	spec.CollapseFraction = sev
	return spec
}

// figExaFaultsRun prices the million-rank IOR write under the fault
// grid for both strategies. Everything is a deterministic function of
// (scale, seed), cell-parallel like the other sweeps.
func figExaFaultsRun(scale int64, seed uint64) ([]FaultPoint, error) {
	cfg := FigExaFaultsConfig(scale, seed)
	wl, name := FigExaWorkload(cfg)
	p, err := newPoint(cfg, wl, name, cfg.MemMB[0])
	if err != nil {
		return nil, err
	}
	return runFaultGrid(p, collio.Write, exaFaultCells())
}
