package collio_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/faults"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/obs"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/twophase"
)

// pricingCase is one topology and workload the property test prices.
type pricingCase struct {
	ctx  *collio.Context
	reqs []collio.RankRequest
	opt  sim.Options
}

// pricingCtx builds a small self-consistent context: ranks on nodes
// nodes, targets storage targets, avail bytes of memory per node.
func pricingCtx(t *testing.T, ranks, nodes, targets int, avail int64) *collio.Context {
	t.Helper()
	topo, err := mpi.BlockTopology(ranks, (ranks+nodes-1)/nodes)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	av := make([]int64, mc.Nodes)
	for i := range av {
		av[i] = avail
	}
	return &collio.Context{Topo: topo, Machine: mc, Avail: av,
		FS: pfs.DefaultConfig(targets), Params: collio.DefaultParams(avail)}
}

// pricingCases returns three pinned workloads — dense contiguous
// blocks, a strided pattern with uneven round remainders, and
// contiguous blocks over a small stripe unit, so each round slice
// lands on a span of targets that wraps past the last one — then n
// random seeded topologies with sparse, overlapping requests and idle
// ranks, every other one striped finely too.
func pricingCases(t *testing.T, n int) []pricingCase {
	opt := sim.DefaultOptions()
	opt.Trace = true
	contiguous := make([]collio.RankRequest, 12)
	for r := range contiguous {
		contiguous[r] = collio.RankRequest{Rank: r,
			Extents: []pfs.Extent{{Offset: int64(r) * 3 << 10, Length: 3 << 10}}}
	}
	strided := make([]collio.RankRequest, 16)
	for r := range strided {
		strided[r].Rank = r
		for b := 0; b < 6; b++ {
			strided[r].Extents = append(strided[r].Extents,
				pfs.Extent{Offset: int64(b*16+r) * 700, Length: 700})
		}
	}
	striped := make([]collio.RankRequest, 16)
	for r := range striped {
		striped[r] = collio.RankRequest{Rank: r,
			Extents: []pfs.Extent{{Offset: 700 + int64(r)*5000, Length: 5000}}}
	}
	stripedCtx := pricingCtx(t, 16, 4, 12, 16<<10)
	stripedCtx.FS.StripeUnit = 1000
	cases := []pricingCase{
		{pricingCtx(t, 12, 4, 4, 16<<10), contiguous, opt},
		{pricingCtx(t, 16, 4, 8, 8<<10), strided, opt},
		{stripedCtx, striped, opt},
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < n; i++ {
		ranks := 4 + rng.Intn(16)
		ctx := pricingCtx(t, ranks, 1+rng.Intn(4), 1+rng.Intn(6), int64(1+rng.Intn(16))<<9)
		if i%2 == 1 {
			ctx.FS.StripeUnit = 300
		}
		reqs := make([]collio.RankRequest, ranks)
		for r := range reqs {
			reqs[r].Rank = r
			for j, m := 0, rng.Intn(5); j < m; j++ {
				reqs[r].Extents = append(reqs[r].Extents, pfs.Extent{
					Offset: int64(rng.Intn(24 << 10)),
					Length: int64(rng.Intn(3 << 10)),
				})
			}
		}
		o := opt
		o.Overlap = i%2 == 0
		cases = append(cases, pricingCase{ctx, reqs, o})
	}
	return cases
}

// freshPlan builds a plan and fault handler for one run. Recovery
// mutates handler state (and the memory-conscious plan's partition
// trees), so the two runs of a comparison never share either.
func freshPlan(t *testing.T, c pricingCase, strategy string, spec faults.Spec) (*collio.Plan, collio.FaultHandler) {
	t.Helper()
	var plan *collio.Plan
	var handler collio.FaultHandler
	switch strategy {
	case "memory-conscious":
		p, state, err := core.New().PlanWithState(c.ctx, c.reqs)
		if err != nil {
			t.Fatal(err)
		}
		plan, handler = p, &core.Failover{State: state, Detect: spec.DetectSeconds}
	default:
		p, err := twophase.New().Plan(c.ctx, c.reqs)
		if err != nil {
			t.Fatal(err)
		}
		plan, handler = p, twophase.NewStallRetry(c.ctx.Avail, spec.StallSeconds)
	}
	if err := plan.Validate(c.reqs); err != nil {
		t.Fatal(err)
	}
	return plan, handler
}

// TestBundledPricingMatchesAllHot is the exactness property of the one
// pricing loop: bundling healthy per-node traffic, pricing stripe spans
// whole, and walking only the injector's hot nodes per rank and hot
// targets one at a time prices bit-identically to walking every node
// per rank and every target access alone. It covers pinned and random
// topologies × {clean, crash/collapse, gray, corruption, storage on a
// few targets} schedules × {write, read} × both strategies, and checks
// the whole FaultResult, error parity where a schedule wipes the
// cluster, and that both runs consumed the same fault schedule: same
// applied events, dead nodes and escalations.
func TestBundledPricingMatchesAllHot(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 6
	}
	var failovers, wipes, msgFaults, gray, corrupt, storage int
	for ci, c := range pricingCases(t, trials) {
		seed := uint64(ci)*31 + 5
		for _, strategy := range []string{"two-phase", "memory-conscious"} {
			clean := faults.DefaultSpec(seed, 1).WithRate(0)
			var ref float64
			for _, op := range []collio.Op{collio.Write, collio.Read} {
				name := fmt.Sprintf("case %d %s %s clean", ci, strategy, op)
				res := cleanParity(t, name, c, strategy, op, clean)
				if op == collio.Write {
					ref = res.Seconds
				}
			}
			horizon := max(ref*4, 1e-9)
			rate := 2 + float64(ci%7)
			crash := faults.DefaultSpec(seed, horizon).WithRate(rate)
			schedules := []struct {
				kind string
				spec faults.Spec
				keep func(faults.Event) bool
			}{
				{"crash", crash, nil},
				{"gray", crash.WithGray(1 + float64(ci%4)), nil},
				{"corruption", crash.WithCorruption(1 + float64(ci%4)), nil},
				{"storage", crash.WithGray(2).WithCorruption(2), fewTargetsStorage},
			}
			for _, sc := range schedules {
				for _, op := range []collio.Op{collio.Write, collio.Read} {
					name := fmt.Sprintf("case %d %s %s %s", ci, strategy, op, sc.kind)
					res, err := faultedParity(t, name, c, strategy, op, sc.spec, sc.keep)
					if err != nil {
						wipes++
						continue
					}
					failovers += res.Failovers
					msgFaults += res.DroppedMessages + res.DelayedMessages
					gray += res.FlakyDrops + res.LeakedNodes
					corrupt += res.CorruptedMessages + res.TornWrites
					if sc.keep != nil {
						storage += res.StorageRetries + res.TornWrites
					}
				}
			}
		}
	}
	if failovers == 0 || wipes == 0 || msgFaults == 0 || gray == 0 || corrupt == 0 || storage == 0 {
		t.Fatalf("property exercised too little: failovers %d, wipes %d, message faults %d, gray %d, corruption %d, storage %d",
			failovers, wipes, msgFaults, gray, corrupt, storage)
	}
}

// fewTargetsStorage keeps a schedule's storage events — transient
// windows, permanent failures, torn writes and gray slowdowns — on every
// third target only, so most of each stripe span stays cold and the hot
// targets are split out of it.
func fewTargetsStorage(ev faults.Event) bool {
	switch ev.Kind {
	case faults.OSTTransient, faults.OSTPermanent, faults.TornWrite, faults.OSTSlowdown:
		return ev.Target%3 == 1
	}
	return false
}

// cleanParity checks the fault-free forms against each other: Cost,
// CostShape over a prebuilt shape, CostWithFaults with a nil and with
// an event-free injector, and the all-hot walk. It returns the result.
func cleanParity(t *testing.T, name string, c pricingCase, strategy string, op collio.Op, spec faults.Spec) *collio.CostResult {
	t.Helper()
	plan, handler := freshPlan(t, c, strategy, spec)
	want, err := collio.Cost(c.ctx, plan, c.reqs, op, c.opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sh, err := collio.BuildShape(c.ctx, plan, c.reqs)
	if err != nil {
		t.Fatal(err)
	}
	shaped, err := collio.CostShape(c.ctx, plan, sh, op, c.opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(shaped, want) {
		t.Fatalf("%s: CostShape diverges from Cost\nshape: %+v\ncost:  %+v", name, shaped, want)
	}
	fplan, err := spec.Generate(c.ctx.Topo.Nodes(), c.ctx.FS.Targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, inj := range []*faults.Injector{nil, faults.NewInjector(fplan)} {
		for hot, cost := range map[bool]func(*collio.Context, *collio.Plan, []collio.RankRequest, collio.Op,
			sim.Options, *faults.Injector, collio.FaultHandler) (*collio.FaultResult, error){
			false: collio.CostWithFaults, true: collio.CostAllHot} {
			got, err := cost(c.ctx, plan, c.reqs, op, c.opt, inj, handler)
			if err != nil {
				t.Fatalf("%s (all hot %v): %v", name, hot, err)
			}
			if !reflect.DeepEqual(got.CostResult, *want) || len(got.Injected) != 0 || got.Injected == nil {
				t.Fatalf("%s (all hot %v): event-free run differs from Cost\ngot:  %+v\nwant: %+v", name, hot, got, want)
			}
		}
	}
	busy, err := faults.DefaultSpec(1, 10).WithRate(4).Generate(c.ctx.Topo.Nodes(), c.ctx.FS.Targets)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collio.CostWithFaults(c.ctx, plan, c.reqs, op, c.opt, faults.NewInjector(busy), nil); err == nil {
		t.Fatalf("%s: faulted pricing without a handler should error", name)
	}
	return want
}

// faultedParity prices one faulted cell bundled and all hot, each from
// its own plan, handler and injector, and fails on any divergence. A
// non-nil keep drops the schedule's other events. It returns the
// bundled result, or the shared error when the schedule kills the
// whole cluster.
func faultedParity(t *testing.T, name string, c pricingCase, strategy string, op collio.Op, spec faults.Spec,
	keep func(faults.Event) bool) (*collio.FaultResult, error) {
	t.Helper()
	generate := func() *faults.Plan {
		p, err := spec.Generate(c.ctx.Topo.Nodes(), c.ctx.FS.Targets)
		if err != nil {
			t.Fatal(err)
		}
		if keep != nil {
			var kept []faults.Event
			for _, ev := range p.Events {
				if keep(ev) {
					kept = append(kept, ev)
				}
			}
			p.Events = kept
		}
		return p
	}
	planA, planB := generate(), generate()
	if !reflect.DeepEqual(planA, planB) {
		t.Fatalf("%s: Generate is not a pure function of the spec", name)
	}
	injA, injB := faults.NewInjector(planA), faults.NewInjector(planB)
	plan, handler := freshPlan(t, c, strategy, spec)
	got, gotErr := collio.CostWithFaults(c.ctx, plan, c.reqs, op, c.opt, injA, handler)
	plan, handler = freshPlan(t, c, strategy, spec)
	want, wantErr := collio.CostAllHot(c.ctx, plan, c.reqs, op, c.opt, injB, handler)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error divergence\nbundled: %v\nall hot: %v", name, gotErr, wantErr)
		}
		return nil, gotErr
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: bundled pricing diverges from all hot\nbundled: %+v\nall hot: %+v", name, got, want)
	}
	if !reflect.DeepEqual(injA.Counts(), injB.Counts()) || !reflect.DeepEqual(injA.DeadNodes(), injB.DeadNodes()) ||
		injA.Escalations() != injB.Escalations() {
		t.Fatalf("%s: the runs applied different schedules: counts %v vs %v, dead %v vs %v, escalations %d vs %d",
			name, injA.Counts(), injB.Counts(), injA.DeadNodes(), injB.DeadNodes(), injA.Escalations(), injB.Escalations())
	}
	return got, nil
}

// TestObservedPricingMatchesUnobserved pins that observation never
// steers pricing: Cost and CostWithFaults with ctx.Obs set return what
// the same runs return unobserved, and on a clean run the per-rank
// mpi.bytes_sent counters add up to the engine's shuffle bytes.
func TestObservedPricingMatchesUnobserved(t *testing.T) {
	c := pricingCases(t, 0)[1]
	faulted := 0
	for _, strategy := range []string{"two-phase", "memory-conscious"} {
		clean := faults.DefaultSpec(3, 1).WithRate(0)
		for _, op := range []collio.Op{collio.Write, collio.Read} {
			plan, _ := freshPlan(t, c, strategy, clean)
			want, err := collio.Cost(c.ctx, plan, c.reqs, op, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			octx := *c.ctx
			octx.Obs = obs.New()
			got, err := collio.Cost(&octx, plan, c.reqs, op, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: observed Cost differs\nobserved:   %+v\nunobserved: %+v", strategy, op, got, want)
			}
			var sent int64
			for r := 0; r < c.ctx.Topo.Size(); r++ {
				sent += octx.Obs.Counter("mpi.bytes_sent", obs.L("strategy", strategy),
					obs.L("op", op.String()), obs.L("rank", strconv.Itoa(r))).Value()
			}
			if sent == 0 || sent != got.Totals.ShufBytes {
				t.Fatalf("%s %s: ranks sent %d bytes, the engine shuffled %d", strategy, op, sent, got.Totals.ShufBytes)
			}

			ref := want.Seconds * 4
			spec := faults.DefaultSpec(3, ref).WithRate(5).WithGray(2).WithCorruption(2)
			run := func(ctx *collio.Context) (*collio.FaultResult, error) {
				fplan, err := spec.Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
				if err != nil {
					t.Fatal(err)
				}
				plan, handler := freshPlan(t, c, strategy, spec)
				return collio.CostWithFaults(ctx, plan, c.reqs, op, c.opt, faults.NewInjector(fplan), handler)
			}
			fwant, wantErr := run(c.ctx)
			octx.Obs = obs.New()
			fgot, gotErr := run(&octx)
			if (wantErr != nil || gotErr != nil) && fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
				t.Fatalf("%s %s: observed error %v, unobserved %v", strategy, op, gotErr, wantErr)
			}
			if !reflect.DeepEqual(fgot, fwant) {
				t.Fatalf("%s %s: observed CostWithFaults differs\nobserved:   %+v\nunobserved: %+v", strategy, op, fgot, fwant)
			}
			if fgot != nil && len(fgot.Injected) > 0 {
				faulted++
			}
		}
	}
	if faulted == 0 {
		t.Fatal("no faulted run priced: the observed fault path went unchecked")
	}
}
