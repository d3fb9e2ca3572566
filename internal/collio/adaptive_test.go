package collio_test

import (
	"bytes"
	"reflect"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/faults"
	"mcio/internal/integrity"
	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// testAdaptive builds an adaptive policy with a short hedge window so
// small test workloads cross it.
func testAdaptive() *collio.Adaptive {
	ad := collio.NewAdaptive()
	ad.HedgeMinSamples = 8
	return ad
}

// With no faults scheduled, an adaptive run must be byte-identical to
// the clean run — the whole policy is inert.
func TestAdaptiveInertWithoutFaults(t *testing.T) {
	ctx := faultCtx(t)
	reqs := faultReqs(12, 1<<18)
	s := core.New()
	plan, state, err := s.PlanWithState(ctx, reqs)
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
	got, err := costReqs(ctx, plan, reqs, collio.Write, sim.DefaultOptions(), collio.FaultEnv{
		Injector: faults.NewInjector(fplan), Handler: &core.Failover{State: state, Detect: 0.01}, Adaptive: testAdaptive()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.CostResult, *want) {
		t.Fatalf("zero-fault adaptive run differs from the clean run:\n got %+v\nwant %+v", got.CostResult, *want)
	}
	if got.ProactiveFailovers != 0 || got.HedgedMessages != 0 || got.BreakerOpens != 0 {
		t.Fatalf("zero-fault adaptive run reported policy work: %+v", got)
	}
}

// grayDuelSchedule pins the acceptance scenario: a degrading OST and a
// straggling aggregator host, both starting after the detector has a
// healthy baseline.
func grayDuelSchedule(spec faults.Spec, victim int, onset, horizon float64) *faults.Plan {
	return &faults.Plan{Spec: spec, Events: []faults.Event{
		{Kind: faults.Straggler, Time: onset, Node: victim, Target: -1,
			Duration: horizon, Severity: 8},
		{Kind: faults.OSTSlowdown, Time: onset, Node: -1, Target: 0,
			Duration: horizon, Severity: 5, Profile: faults.ProfileStep},
	}}
}

// The acceptance duel: under a seeded gray schedule the health-driven
// plan must complete in strictly less simulated time than the static
// retry-only baseline, because it proactively moves work off the
// straggling host instead of paying the slowdown to the end.
func TestAdaptiveBeatsStaticUnderGraySchedule(t *testing.T) {
	ctx := faultCtx(t)
	reqs := faultReqs(12, 1<<18)
	s := core.New()

	ref, err := collio.CostSet(ctx, mustPlan(t, s, ctx, reqs), collio.NewRequestSet(reqs), collio.Write, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	horizon := ref.Seconds * 6
	spec := faults.DefaultSpec(11, horizon).WithRate(0)
	spec.Horizon = horizon

	run := func(adaptive bool) *collio.FaultResult {
		plan, state, err := s.PlanWithState(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		victim := plan.Domains[0].AggNode
		inj := faults.NewInjector(grayDuelSchedule(spec, victim, ref.Seconds/3, horizon))
		handler := &core.Failover{State: state, Detect: spec.DetectSeconds}
		if !adaptive {
			res, err := costReqs(ctx, plan, reqs, collio.Write, sim.DefaultOptions(),
				collio.FaultEnv{Injector: inj, Handler: handler})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		res, err := costReqs(ctx, plan, reqs, collio.Write, sim.DefaultOptions(),
			collio.FaultEnv{Injector: inj, Handler: handler, Adaptive: testAdaptive()})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	static := run(false)
	adaptive := run(true)

	if adaptive.UserBytes != static.UserBytes {
		t.Fatalf("user bytes diverged: %d vs %d", adaptive.UserBytes, static.UserBytes)
	}
	if adaptive.SuspectEvents == 0 {
		t.Fatal("gray schedule raised no suspicion")
	}
	if adaptive.ProactiveFailovers == 0 {
		t.Fatal("suspected straggler triggered no proactive failover")
	}
	if adaptive.Seconds >= static.Seconds {
		t.Fatalf("adaptive (%.4fs) not strictly faster than static (%.4fs)",
			adaptive.Seconds, static.Seconds)
	}
}

// Same schedule, same policy, twice: adaptive runs must be fully
// deterministic.
func TestAdaptiveDeterministic(t *testing.T) {
	ctx := faultCtx(t)
	reqs := faultReqs(12, 1<<18)
	run := func() *collio.FaultResult {
		s := core.New()
		plan, state, err := s.PlanWithState(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		spec := faults.DefaultSpec(99, 2.0).WithGray(2)
		fplan, err := spec.WithRate(4).Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
		if err != nil {
			t.Fatal(err)
		}
		res, err := costReqs(ctx, plan, reqs, collio.Write, sim.DefaultOptions(), collio.FaultEnv{
			Injector: faults.NewInjector(fplan),
			Handler:  &core.Failover{State: state, Detect: spec.DetectSeconds},
			Adaptive: testAdaptive(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("adaptive runs with identical seeds diverged:\n a %+v\n b %+v", a, b)
	}
}

// Sustained message delay on one host gets hedged: duplicates are
// requested, their bytes counted and deduped, and the hedged run beats
// the static one because stragglers are charged the hedge deadline,
// not the full delay.
func TestAdaptiveHedgesStragglingMessages(t *testing.T) {
	ctx := faultCtx(t)
	reqs := faultReqs(12, 1<<18)
	s := core.New()

	ref, err := collio.CostSet(ctx, mustPlan(t, s, ctx, reqs), collio.NewRequestSet(reqs), collio.Write, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	horizon := ref.Seconds * 8
	spec := faults.DefaultSpec(5, horizon).WithRate(0)
	spec.Horizon = horizon
	delayed := ctx.Topo.NodeOf(reqs[1].Rank)
	sched := &faults.Plan{Spec: spec, Events: []faults.Event{
		{Kind: faults.MsgDelay, Time: ref.Seconds / 4, Node: delayed, Target: -1,
			Duration: horizon, Severity: spec.DropTimeoutSeconds * 4},
	}}

	run := func(ad *collio.Adaptive) *collio.FaultResult {
		plan, state, err := s.PlanWithState(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		inj := faults.NewInjector(sched)
		handler := &core.Failover{State: state, Detect: spec.DetectSeconds}
		var res *collio.FaultResult
		if ad == nil {
			res, err = costReqs(ctx, plan, reqs, collio.Write, sim.DefaultOptions(),
				collio.FaultEnv{Injector: inj, Handler: handler})
		} else {
			ad.Detector = nil // no suspicion, so no proactive failover: isolate hedging
			res, err = costReqs(ctx, plan, reqs, collio.Write, sim.DefaultOptions(),
				collio.FaultEnv{Injector: inj, Handler: handler, Adaptive: ad})
		}
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	static := run(nil)
	adaptive := run(testAdaptive())

	if adaptive.HedgedMessages == 0 {
		t.Fatal("sustained stragglers were never hedged")
	}
	if adaptive.HedgedBytes == 0 || adaptive.DedupedBytes != adaptive.HedgedBytes {
		t.Fatalf("hedge accounting: hedged=%d deduped=%d, want equal and nonzero",
			adaptive.HedgedBytes, adaptive.DedupedBytes)
	}
	if adaptive.UserBytes != static.UserBytes {
		t.Fatalf("hedging changed user bytes: %d vs %d", adaptive.UserBytes, static.UserBytes)
	}
	if adaptive.Seconds >= static.Seconds {
		t.Fatalf("hedged run (%.4fs) not faster than static (%.4fs)", adaptive.Seconds, static.Seconds)
	}
}

func mustPlan(t *testing.T, s collio.Strategy, ctx *collio.Context, reqs []collio.RankRequest) *collio.Plan {
	t.Helper()
	plan, err := s.Plan(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// The real-byte hedge invariant: hedged duplicates are verified and
// discarded, so the file is byte-identical to the oracle and no
// duplicate byte is double-counted into user buffers.
func TestExecVerifiedHedgedDedups(t *testing.T) {
	ctx, plan, reqs, data, oracle := verifySetup(t, 6, 2)
	fsys, err := pfs.NewFileSystem(ctx.FS)
	if err != nil {
		t.Fatal(err)
	}
	file := fsys.Open("hedged")
	chk := integrity.NewChecker(integrity.Config{Seed: 9, Repair: true})
	hed := &collio.Hedger{Seed: 42}

	if err := collio.ExecVerified(ctx, plan, data, file, collio.Write, chk, nil, hed); err != nil {
		t.Fatal(err)
	}
	if hed.Hedged() == 0 {
		t.Fatal("hedger hedged nothing")
	}
	if hed.DedupedBytes() == 0 {
		t.Fatal("clean duplicates were not counted as deduped")
	}
	got := make([]byte, len(oracle))
	if _, err := file.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oracle) {
		t.Fatal("hedged write differs from fault-free oracle")
	}

	// Read path hedges too, and the buffers still round-trip exactly.
	readData := make([]collio.RankData, len(data))
	for i := range readData {
		readData[i] = collio.RankData{Req: reqs[i], Buf: make([]byte, len(data[i].Buf))}
	}
	if err := collio.ExecVerified(ctx, plan, readData, file, collio.Read, chk, nil, hed); err != nil {
		t.Fatal(err)
	}
	for i := range readData {
		if !bytes.Equal(readData[i].Buf, data[i].Buf) {
			t.Fatalf("rank %d read back different bytes under hedging", i)
		}
	}
	if rep := chk.Report(); rep.Detected != 0 || rep.Unrepaired != 0 {
		t.Fatalf("clean hedged run reported corruption: %+v", rep)
	}

	// A nil hedger writes exactly the unhedged bytes.
	file2 := fsys.Open("unhedged")
	data2 := make([]collio.RankData, len(data))
	for i := range data2 {
		buf := make([]byte, len(data[i].Buf))
		copy(buf, data[i].Buf)
		data2[i] = collio.RankData{Req: reqs[i], Buf: buf}
	}
	if err := collio.ExecVerified(ctx, plan, data2, file2, collio.Write, chk, nil, nil); err != nil {
		t.Fatal(err)
	}
	got2 := make([]byte, len(oracle))
	if _, err := file2.ReadAt(got2, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, oracle) {
		t.Fatal("nil-hedger write differs from oracle")
	}
}
