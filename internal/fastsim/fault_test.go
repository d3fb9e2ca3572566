package fastsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/faults"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/twophase"
)

// faultedPlan builds a fresh plan and fault handler for one priced run.
// Recovery mutates handler state (and, for the memory-conscious
// strategy, the plan's partition trees), so cross-checks must never
// share either between runs.
func faultedPlan(ctx *collio.Context, strategy string, reqs []collio.RankRequest,
	spec faults.Spec) (*collio.Plan, collio.FaultHandler, error) {
	switch strategy {
	case "memory-conscious":
		p, state, err := core.New().PlanWithState(ctx, reqs)
		if err != nil {
			return nil, nil, err
		}
		return p, &core.Failover{State: state, Detect: spec.DetectSeconds}, nil
	case "two-phase":
		p, err := twophase.New().Plan(ctx, reqs)
		if err != nil {
			return nil, nil, err
		}
		return p, twophase.NewStallRetry(ctx.Avail, spec.StallSeconds), nil
	}
	return nil, nil, fmt.Errorf("unknown strategy %q", strategy)
}

// priceFaultedBoth prices one faulted cell through CostWithFaults
// (bundled wherever no fault state forbids it) and on the per-rank walk
// — each from its own freshly built plan, injector and handler — and
// fails on any divergence in the full FaultResult: costs, engine totals,
// fault tallies, injected-event counts (the schedule must not depend on
// bundling), and round traces.
func priceFaultedBoth(t *testing.T, ctx *collio.Context, strategy string,
	reqs []collio.RankRequest, op collio.Op, opt sim.Options, spec faults.Spec) *collio.FaultResult {
	t.Helper()
	run := func(cost func(*collio.Context, *collio.Plan, []collio.RankRequest, collio.Op,
		sim.Options, *faults.Injector, collio.FaultHandler) (*collio.FaultResult, error)) (*collio.FaultResult, error) {
		fplan, err := spec.Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
		if err != nil {
			t.Fatal(err)
		}
		plan, handler, err := faultedPlan(ctx, strategy, reqs, spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(reqs); err != nil {
			t.Fatal(err)
		}
		return cost(ctx, plan, reqs, op, opt, faults.NewInjector(fplan), handler)
	}
	want, wantErr := run(perRank)
	got, gotErr := run(CostWithFaults)
	if wantErr != nil {
		// A schedule can legitimately kill the whole cluster; the handler's
		// refusal must surface identically from both paths.
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s %s: error divergence\nbundled:  %v\nper-rank: %v",
				strategy, op, gotErr, wantErr)
		}
		return nil
	}
	if gotErr != nil {
		t.Fatalf("%s %s: bundled pricing errored where the per-rank walk priced: %v", strategy, op, gotErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %s: faulted pricing diverges\nbundled:  %+v\nper-rank: %+v",
			strategy, op, got, want)
	}
	return got
}

// TestFaultedEnginesMatchCrash pins a schedule dominated by host-level
// events — crashes and memory collapses forcing remerges, replays and
// recovery rounds — and checks bit-identity on a workload with uneven
// rounds.
func TestFaultedEnginesMatchCrash(t *testing.T) {
	ctx := testContext(t, 16, 4, 8, 8<<10)
	reqs := make([]collio.RankRequest, 16)
	const rec = 700
	for r := range reqs {
		for b := 0; b < 6; b++ {
			reqs[r].Extents = append(reqs[r].Extents, pfs.Extent{
				Offset: int64(b*16+r) * rec,
				Length: rec,
			})
		}
		reqs[r].Rank = r
	}
	opt := sim.DefaultOptions()
	opt.Trace = true
	// Rate 5 survives under both strategies (remerges and stalls price to
	// completion); rate 8 wipes the cluster under memory-conscious and
	// must surface the identical handler error from both paths.
	failovers := 0
	for _, rate := range []float64{5, 8} {
		for _, strategy := range []string{"two-phase", "memory-conscious"} {
			ref := priceFaultedBoth(t, ctx, strategy, reqs, collio.Write, opt,
				faults.DefaultSpec(3, 1).WithRate(0))
			spec := faults.DefaultSpec(3, ref.Seconds*4).WithRate(rate)
			for _, op := range []collio.Op{collio.Write, collio.Read} {
				res := priceFaultedBoth(t, ctx, strategy, reqs, op, opt, spec)
				if res == nil {
					continue
				}
				if len(res.Injected) == 0 {
					t.Fatalf("%s %s rate %g: schedule injected no events — test exercises nothing", strategy, op, rate)
				}
				failovers += res.Failovers
			}
		}
	}
	if failovers == 0 {
		t.Fatal("no cell exercised a failover — crash recovery untested")
	}
}

// TestFaultedEnginesMatchRandom is the property test: random seeded
// topologies, workloads and fault schedules — cycling plain, gray
// (stragglers, flaky NICs, slow OSTs, leaks) and corruption (bit
// flips, torn writes) profiles — must price identically bundled and per
// rank, under both strategies and directions.
func TestFaultedEnginesMatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	trials := 18
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		ranks := 4 + rng.Intn(16)
		perNode := 1 + rng.Intn(4)
		targets := 1 + rng.Intn(6)
		avail := int64(1+rng.Intn(16)) << 9
		ctx := testContext(t, ranks, perNode, targets, avail)
		reqs := make([]collio.RankRequest, ranks)
		for r := 0; r < ranks; r++ {
			reqs[r].Rank = r
			for i, n := 0, rng.Intn(5); i < n; i++ {
				reqs[r].Extents = append(reqs[r].Extents, pfs.Extent{
					Offset: int64(rng.Intn(24 << 10)),
					Length: int64(rng.Intn(3 << 10)),
				})
			}
		}
		opt := sim.DefaultOptions()
		opt.Overlap = trial%2 == 0
		opt.Trace = true
		seed := uint64(trial)*31 + 5
		for _, strategy := range []string{"two-phase", "memory-conscious"} {
			ref := priceFaultedBoth(t, ctx, strategy, reqs, collio.Write, opt,
				faults.DefaultSpec(seed, 1).WithRate(0))
			horizon := ref.Seconds * 4
			if horizon <= 0 {
				horizon = 1
			}
			spec := faults.DefaultSpec(seed, horizon).WithRate(2 + float64(rng.Intn(8)))
			switch trial % 3 {
			case 1:
				spec = spec.WithGray(1 + float64(rng.Intn(4)))
			case 2:
				spec = spec.WithCorruption(1 + float64(rng.Intn(4)))
			}
			for _, op := range []collio.Op{collio.Write, collio.Read} {
				priceFaultedBoth(t, ctx, strategy, reqs, op, opt, spec)
			}
		}
	}
}

// TestFaultedEmptyInjectorDelegates checks the inert paths: a nil or
// event-free injector must reduce to the clean run (same CostResult,
// empty Injected map) on both paths, and a missing handler must be an
// error.
func TestFaultedEmptyInjectorDelegates(t *testing.T) {
	ctx := testContext(t, 12, 4, 4, 16<<10)
	reqs := make([]collio.RankRequest, 12)
	const chunk = 3 << 10
	for r := range reqs {
		reqs[r] = collio.RankRequest{Rank: r, Extents: []pfs.Extent{
			{Offset: int64(r) * chunk, Length: chunk},
		}}
	}
	opt := sim.DefaultOptions()
	opt.Trace = true
	spec := faults.DefaultSpec(1, 1).WithRate(0)
	priceFaultedBoth(t, ctx, "two-phase", reqs, collio.Write, opt, spec)

	plan, handler, err := faultedPlan(ctx, "two-phase", reqs, spec)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := collio.Cost(ctx, plan, reqs, collio.Write, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CostWithFaults(ctx, plan, reqs, collio.Write, opt, nil, handler)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.CostResult, *clean) || len(res.Injected) != 0 {
		t.Fatalf("empty injector did not reduce to the clean run: %+v", res)
	}

	fplan, err := faults.DefaultSpec(1, 10).WithRate(4).Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CostWithFaults(ctx, plan, reqs, collio.Write, opt, faults.NewInjector(fplan), nil); err == nil {
		t.Fatal("faulted pricing without a handler should error")
	}
}

// TestFaultScheduleEngineInvariant pins a fault schedule and proves the
// event stream both paths consume is the same object, not merely
// same-shaped: the generated plans are identical, and after a full
// priced run the bundled and the per-rank run's injectors have applied
// the same events — same per-kind counts, same dead-node set, same
// escalations. Together with the bit-identity checks this closes the
// loop: same schedule in, same recovery out, bundled or not.
func TestFaultScheduleEngineInvariant(t *testing.T) {
	ctx := testContext(t, 24, 4, 8, 12<<10)
	reqs := make([]collio.RankRequest, 24)
	for r := range reqs {
		reqs[r] = collio.RankRequest{Rank: r,
			Extents: []pfs.Extent{{Offset: int64(r) * 900, Length: 900}}}
	}
	opt := sim.DefaultOptions()
	opt.Trace = true
	for _, strategy := range []string{"two-phase", "memory-conscious"} {
		ref := priceFaultedBoth(t, ctx, strategy, reqs, collio.Write, opt,
			faults.DefaultSpec(11, 1).WithRate(0))
		spec := faults.DefaultSpec(11, ref.Seconds*4).WithRate(3).WithGray(2).WithCorruption(2)

		planA, err := spec.Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
		if err != nil {
			t.Fatal(err)
		}
		planB, err := spec.Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(planA, planB) {
			t.Fatal("Generate is not a pure function of the spec: plans diverge")
		}

		type pricedRun struct {
			name string
			cost func(*collio.Context, *collio.Plan, []collio.RankRequest, collio.Op,
				sim.Options, *faults.Injector, collio.FaultHandler) (*collio.FaultResult, error)
			inj *faults.Injector
		}
		runs := []pricedRun{
			{"per-rank", perRank, faults.NewInjector(planA)},
			{"bundled", CostWithFaults, faults.NewInjector(planB)},
		}
		for i := range runs {
			plan, handler, err := faultedPlan(ctx, strategy, reqs, spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := runs[i].cost(ctx, plan, reqs, collio.Write, opt, runs[i].inj, handler); err != nil {
				t.Fatalf("%s: %s: %v", strategy, runs[i].name, err)
			}
		}
		walked, bundled := runs[0].inj, runs[1].inj
		if !reflect.DeepEqual(bundled.Counts(), walked.Counts()) {
			t.Fatalf("%s: applied-event counts diverge\nbundled  %v\nper-rank %v",
				strategy, bundled.Counts(), walked.Counts())
		}
		if len(walked.Counts()) == 0 {
			t.Fatalf("%s: schedule applied no events — invariance proved vacuously", strategy)
		}
		if !reflect.DeepEqual(bundled.DeadNodes(), walked.DeadNodes()) {
			t.Fatalf("%s: dead-node sets diverge: bundled %v per-rank %v",
				strategy, bundled.DeadNodes(), walked.DeadNodes())
		}
		if bundled.Escalations() != walked.Escalations() {
			t.Fatalf("%s: escalation counts diverge: bundled %d per-rank %d",
				strategy, bundled.Escalations(), walked.Escalations())
		}
	}
}
