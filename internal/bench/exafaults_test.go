package bench

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/faults"
	"mcio/internal/sim"
	"mcio/internal/twophase"
)

// TestFaultedExaEnginesMatchSmall shrinks the fig-exa-faults grid to
// 600 ranks, a size the per-rank walk prices quickly, and cross-checks
// it against the walk (checkExaGridMatchesWalk).
func TestFaultedExaEnginesMatchSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fault grids, one walked per rank")
	}
	checkExaGridMatchesWalk(t, 600, 100, 16)
}

// checkExaGridMatchesWalk prices the fig-exa-faults grid on a point of
// ranks ranks, nodes nodes and targets targets, and checks that every
// cell — crash remerges, stalls, stragglers and all — prices bit for bit
// as it does with every node walked per rank. The reference runs each
// cell's plan, injector and handler with an Adaptive in the env, which
// marks every node hot: one with no detector, no breakers, no proactive
// failover and hedging never armed, so the response is the static
// retry-only one, walked per rank.
func checkExaGridMatchesWalk(t *testing.T, ranks, nodes, targets int) {
	t.Helper()
	cells := exaFaultCells()
	bundled, err := runFaultGrid(smallExaPoint(t, ranks, nodes, targets), collio.Write, cells)
	if err != nil {
		t.Fatal(err)
	}

	// The reference builds its own point: nothing the grid run left in
	// its context or request set reaches the per-rank walk.
	p := smallExaPoint(t, ranks, nodes, targets)
	opt := p.cfg.options()
	opt.Trace = true
	rs := collio.NewRequestSet(p.reqs)
	perRank := func(strategy string, spec faults.Spec) *collio.FaultResult {
		plan, inj, handler, err := freshFaultedSetup(p.ctx, rs, strategy, spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := costFresh(p.ctx, plan, rs, collio.Write, opt,
			collio.FaultEnv{Injector: inj, Handler: handler, Adaptive: &collio.Adaptive{HedgeMinSamples: math.MaxInt}})
		if err != nil {
			t.Fatalf("%s: per-rank walk: %v", strategy, err)
		}
		return res
	}

	strategies := []string{"two-phase", "memory-conscious"}
	if len(bundled) != len(cells)*len(strategies) {
		t.Fatalf("point counts diverge: bundled %d, grid %d", len(bundled), len(cells)*len(strategies))
	}
	refs := map[string]float64{}
	for _, strategy := range strategies {
		refs[strategy] = perRank(strategy, faults.DefaultSpec(p.cfg.Seed, 1).WithRate(0)).Seconds
	}
	exercised := 0
	for i, b := range bundled {
		cell, strategy := cells[i/len(strategies)], strategies[i%len(strategies)]
		if b.cell != cell.name || b.Strategy != strategy {
			t.Fatalf("point %d is %s/%s, want %s/%s", i, b.cell, b.Strategy, cell.name, strategy)
		}
		if b.RefSeconds != refs[strategy] {
			t.Fatalf("cell %s/%s: references diverge: bundled %v, per-rank %v",
				cell.name, strategy, b.RefSeconds, refs[strategy])
		}
		want := perRank(strategy, cell.spec(p.cfg.Seed, refs[strategy]*4, p.ctx.Topo.Nodes()))
		if !reflect.DeepEqual(b.Res, want) {
			t.Fatalf("cell %s/%s: bundled and per-rank pricing diverge\nbundled  %+v\nper-rank %+v",
				cell.name, strategy, b.Res, want)
		}
		exercised += b.Res.Failovers + b.Res.Stalls
	}
	if exercised == 0 {
		t.Fatal("no grid cell exercised a failover or stall; the cross-check proved nothing")
	}
}

// freshFaultedSetup builds everything one faulted run prices anew,
// sharing nothing with any other run: the strategy's plan, planned
// anew, an injector over spec's schedule and the strategy's fault
// handler over the plan's own recovery state. With costFresh it is the
// oracle the grid's shared plans and forked states are checked against.
func freshFaultedSetup(ctx *collio.Context, rs *collio.RequestSet, strategy string,
	spec faults.Spec) (*collio.Plan, *faults.Injector, collio.FaultHandler, error) {
	fplan, err := spec.Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
	if err != nil {
		return nil, nil, nil, err
	}
	var plan *collio.Plan
	var handler collio.FaultHandler
	switch strategy {
	case "memory-conscious":
		p, state, err := core.New().PlanWithStateSet(ctx, rs)
		if err != nil {
			return nil, nil, nil, err
		}
		plan, handler = p, &core.Failover{State: state, Detect: spec.DetectSeconds}
	case "two-phase":
		p, err := twophase.New().PlanSet(ctx, rs)
		if err != nil {
			return nil, nil, nil, err
		}
		plan, handler = p, twophase.NewStallRetry(ctx.Avail, spec.StallSeconds)
	default:
		return nil, nil, nil, fmt.Errorf("unknown strategy %q", strategy)
	}
	return plan, faults.NewInjector(fplan), handler, nil
}

// costFresh prices plan over rs under env from a shape built, and the
// plan validated, for this run alone.
func costFresh(ctx *collio.Context, plan *collio.Plan, rs *collio.RequestSet, op collio.Op, opt sim.Options,
	env collio.FaultEnv) (*collio.FaultResult, error) {
	sh, err := collio.BuildShapeSet(ctx, plan, rs)
	if err != nil {
		return nil, err
	}
	res, err := collio.CostShape(ctx, plan, sh, rs, []collio.Op{op}, opt, env)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// smallExaPoint is the fig-exa-faults point shrunk to ranks ranks, on
// nodes nodes (block placement, ranks/nodes per node) and targets
// targets: the exascale grid's workload shape at a size the per-rank
// walk can price.
func smallExaPoint(t testing.TB, ranks, nodes, targets int) *figurePoint {
	t.Helper()
	cfg := FigExaFaultsConfig(testScale, 42)
	cfg.Ranks = ranks
	cfg.RanksPerNode = ranks / nodes
	cfg.Targets = targets
	wl, name := FigExaWorkload(cfg)
	p, err := newPoint(cfg, wl, name, cfg.MemMB[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ctx.Topo.Nodes(); got != nodes {
		t.Fatalf("point has %d nodes, want %d", got, nodes)
	}
	return p
}

// TestValidatePresetConflicts pins the preset × sweep validation: a
// memory point larger than the chosen machine's DRAM must be rejected
// up front (context() would silently clamp it and flatten the sweep),
// and a misspelled preset surfaces machine.Preset's error.
func TestValidatePresetConflicts(t *testing.T) {
	cfg := Fig7Config(1, 1) // scale 1: paper-scale MB reach the machine unshrunk
	cfg.Preset = "exascale2018"
	cfg.MemMB = []int{16}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("16 MB on exascale2018 should fit: %v", err)
	}
	cfg.MemMB = []int{1 << 20} // 1 TB per aggregator vs ~10 GB per node
	err := cfg.Validate()
	if err == nil {
		t.Fatal("TB-scale sweep point on a 10 GB/node machine accepted")
	}
	if !strings.Contains(err.Error(), "exascale-2018") || !strings.Contains(err.Error(), "shrink the sweep") {
		t.Fatalf("conflict error not actionable: %v", err)
	}

	// Headroom multiplies the endowment and must participate.
	cfg.MemMB = []int{16}
	cfg.HeadroomFactor = 1 << 30
	if err := cfg.Validate(); err == nil {
		t.Fatal("absurd headroom on a small machine accepted")
	}

	cfg = Fig7Config(1, 1)
	cfg.Preset = "exascale2019"
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Fatalf("bad preset not rejected: %v", err)
	}
}
