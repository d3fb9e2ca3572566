package collio_test

import (
	"reflect"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/faults"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/twophase"
)

func faultReqs(ranks int, per int64) []collio.RankRequest {
	var reqs []collio.RankRequest
	for r := 0; r < ranks; r++ {
		reqs = append(reqs, collio.RankRequest{
			Rank:    r,
			Extents: []pfs.Extent{{Offset: int64(r) * per, Length: per}},
		})
	}
	return reqs
}

func faultCtx(t testing.TB) *collio.Context {
	buf := int64(1 << 16)
	params := collio.DefaultParams(buf)
	params.MsgInd = 4 * buf
	params.MsgGroup = 16 * buf
	params.MemMin = buf / 2
	return buildContext(t, 12, 3, params, nil) // 4 nodes
}

// With no injector (or an all-zero-rate one) CostWithFaults must be
// byte-identical to Cost: the fault path is fully inert.
func TestCostWithFaultsInertWithoutFaults(t *testing.T) {
	ctx := faultCtx(t)
	reqs := faultReqs(12, 1<<18)
	for _, s := range []collio.Strategy{twophase.New(), core.New()} {
		plan, err := s.Plan(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := collio.CostSet(ctx, plan, collio.NewRequestSet(reqs), collio.Write, sim.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		zeroed := faults.DefaultSpec(1, 100).WithRate(0)
		fplan, err := zeroed.Generate(4, ctx.FS.Targets)
		if err != nil {
			t.Fatal(err)
		}
		for _, inj := range []*faults.Injector{nil, faults.NewInjector(fplan)} {
			got, err := costReqs(ctx, plan, reqs, collio.Write, sim.DefaultOptions(),
				collio.FaultEnv{Injector: inj})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.CostResult, *want) {
				t.Fatalf("%s: zero-fault CostWithFaults differs from Cost:\n got %+v\nwant %+v",
					s.Name(), got.CostResult, *want)
			}
			if got.Failovers != 0 || got.Stalls != 0 || got.RecoverySeconds != 0 {
				t.Fatalf("%s: zero-fault run reported recovery work: %+v", s.Name(), got)
			}
		}
	}
}

// crashPlan builds a single-event fault schedule killing node at time.
func crashPlan(spec faults.Spec, node int, at float64) *faults.Plan {
	return &faults.Plan{Spec: spec, Events: []faults.Event{
		{Kind: faults.NodeCrash, Time: at, Node: node},
	}}
}

// A node crash mid-operation must fail the memory-conscious plan over
// to a live sibling: work completes, recovery time is attributed, and
// the run costs more than the fault-free one.
func TestNodeCrashFailsOverToSibling(t *testing.T) {
	ctx := faultCtx(t)
	reqs := faultReqs(12, 1<<18)
	s := core.New()

	clean, err := s.Plan(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := collio.CostSet(ctx, clean, collio.NewRequestSet(reqs), collio.Write, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	plan, state, err := s.PlanWithState(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Domains) < 2 {
		t.Fatalf("want a multi-domain plan to fail over within, got %d domains", len(plan.Domains))
	}
	spec := faults.DefaultSpec(7, ref.Seconds*4)
	victim := plan.Domains[0].AggNode
	inj := faults.NewInjector(crashPlan(spec, victim, ref.Seconds/2))
	handler := &core.Failover{State: state, Detect: spec.DetectSeconds}

	res, err := costReqs(ctx, plan, reqs, collio.Write, sim.DefaultOptions(),
		collio.FaultEnv{Injector: inj, Handler: handler})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers == 0 {
		t.Fatal("crash did not trigger a failover")
	}
	if res.Injected["node-crash"] != 1 {
		t.Fatalf("injected counts = %v, want one node-crash", res.Injected)
	}
	if res.RecoverySeconds <= 0 {
		t.Fatal("recovery time was not attributed")
	}
	if res.Seconds <= ref.Seconds {
		t.Fatalf("faulted run (%.4fs) not slower than fault-free (%.4fs)", res.Seconds, ref.Seconds)
	}
	if !state.Down(victim) {
		t.Fatal("crashed node not marked down in recovery state")
	}
}

// The baseline stalls and retries in place: no failover, and at least
// the configured stall charged as recovery time.
func TestBaselineStallsInPlaceOnCrash(t *testing.T) {
	ctx := faultCtx(t)
	reqs := faultReqs(12, 1<<18)
	s := twophase.New()
	plan, err := s.Plan(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := collio.CostSet(ctx, plan, collio.NewRequestSet(reqs), collio.Write, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	spec := faults.DefaultSpec(7, ref.Seconds*4)
	victim := plan.Domains[0].AggNode
	inj := faults.NewInjector(crashPlan(spec, victim, ref.Seconds/2))
	handler := twophase.NewStallRetry(ctx.Avail, spec.StallSeconds)

	res, err := costReqs(ctx, plan, reqs, collio.Write, sim.DefaultOptions(),
		collio.FaultEnv{Injector: inj, Handler: handler})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers != 0 {
		t.Fatalf("baseline moved work (%d failovers); it must stall in place", res.Failovers)
	}
	if res.Stalls == 0 {
		t.Fatal("baseline crash recovery recorded no stall")
	}
	if res.RecoverySeconds < spec.StallSeconds {
		t.Fatalf("recovery time %.4fs below the stall %.4fs", res.RecoverySeconds, spec.StallSeconds)
	}
}

// Same plan, same fault schedule, same handler state: the faulted cost
// must be fully deterministic.
func TestFaultedCostDeterministic(t *testing.T) {
	ctx := faultCtx(t)
	reqs := faultReqs(12, 1<<18)
	run := func() *collio.FaultResult {
		s := core.New()
		plan, state, err := s.PlanWithState(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		spec := faults.DefaultSpec(99, 2.0)
		fplan, err := spec.WithRate(4).Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
		if err != nil {
			t.Fatal(err)
		}
		res, err := costReqs(ctx, plan, reqs, collio.Write, sim.DefaultOptions(),
			collio.FaultEnv{Injector: faults.NewInjector(fplan), Handler: &core.Failover{State: state, Detect: spec.DetectSeconds}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("faulted runs with identical seeds diverged:\n a %+v\n b %+v", a, b)
	}
}

// ApplyReassignments + Compact: merges fold the victim into the
// absorber keeping indices stable, and the compacted plan revalidates.
func TestApplyReassignmentsMergeAndCompact(t *testing.T) {
	doms := []collio.Domain{
		{Extents: []pfs.Extent{{Offset: 0, Length: 100}}, Bytes: 100, Aggregator: 0, AggNode: 0, BufferBytes: 64},
		{Extents: []pfs.Extent{{Offset: 100, Length: 100}}, Bytes: 100, Aggregator: 3, AggNode: 1, BufferBytes: 64},
	}
	err := collio.ApplyReassignments(doms, []collio.Reassignment{{Domain: 0, MergeInto: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if doms[0].Bytes != 0 || doms[0].Extents != nil {
		t.Fatalf("victim not emptied: %+v", doms[0])
	}
	want := []pfs.Extent{{Offset: 0, Length: 200}}
	if doms[1].Bytes != 200 || !reflect.DeepEqual(doms[1].Extents, want) {
		t.Fatalf("absorber = %+v, want 200 bytes over %v", doms[1], want)
	}

	plan := &collio.Plan{Strategy: "x", Groups: 1, GroupRanks: [][]int{{0, 3}}, Domains: doms}
	compact := plan.Compact()
	if len(compact.Domains) != 1 {
		t.Fatalf("Compact kept %d domains, want 1", len(compact.Domains))
	}
	reqs := []collio.RankRequest{
		{Rank: 0, Extents: []pfs.Extent{{Offset: 0, Length: 100}}},
		{Rank: 3, Extents: []pfs.Extent{{Offset: 100, Length: 100}}},
	}
	if err := compact.Validate(reqs); err != nil {
		t.Fatalf("compacted plan invalid: %v", err)
	}

	// Invalid merges are rejected.
	if err := collio.ApplyReassignments(doms, []collio.Reassignment{{Domain: 1, MergeInto: 1}}); err == nil {
		t.Fatal("self-merge accepted")
	}
	if err := collio.ApplyReassignments(doms, []collio.Reassignment{{Domain: 5, MergeInto: 0}}); err == nil {
		t.Fatal("out-of-range domain accepted")
	}
}

// OST transient errors price retries without corrupting the result:
// bytes still move, retries are counted, and the run is slower.
func TestOSTTransientRetriesPriced(t *testing.T) {
	ctx := faultCtx(t)
	reqs := faultReqs(12, 1<<18)
	s := core.New()
	plan, state, err := s.PlanWithState(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := collio.CostSet(ctx, plan, collio.NewRequestSet(reqs), collio.Write, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	spec := faults.DefaultSpec(3, ref.Seconds*4)
	fplan := &faults.Plan{Spec: spec, Events: []faults.Event{
		{Kind: faults.OSTTransient, Time: 0, Target: 0, Duration: ref.Seconds * 4},
	}}
	res, err := costReqs(ctx, plan, reqs, collio.Write, sim.DefaultOptions(),
		collio.FaultEnv{Injector: faults.NewInjector(fplan), Handler: &core.Failover{State: state, Detect: spec.DetectSeconds}})
	if err != nil {
		t.Fatal(err)
	}
	if res.StorageRetries == 0 {
		t.Fatal("transient OST window produced no retries")
	}
	if res.Seconds <= ref.Seconds {
		t.Fatalf("retried run (%.4fs) not slower than clean (%.4fs)", res.Seconds, ref.Seconds)
	}
	if res.UserBytes != ref.UserBytes {
		t.Fatalf("user bytes changed under retries: %d vs %d", res.UserBytes, ref.UserBytes)
	}
}
