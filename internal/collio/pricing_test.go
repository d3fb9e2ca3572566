package collio_test

import (
	"fmt"
	"math/rand"
	"reflect"
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

// pricingCase is one topology and workload the property test prices,
// with its requests held in one set.
type pricingCase struct {
	ctx  *collio.Context
	reqs []collio.RankRequest
	rs   *collio.RequestSet
	opt  sim.Options
}

// price builds plan's shape over the case's set and prices op under
// env: the one form every priced run of these tests goes through.
func (c pricingCase) price(ctx *collio.Context, plan *collio.Plan, op collio.Op, env collio.FaultEnv) (*collio.FaultResult, error) {
	sh, err := collio.BuildShapeSet(ctx, plan, c.rs)
	if err != nil {
		return nil, err
	}
	return costOne(ctx, plan, sh, c.rs, op, c.opt, env)
}

// costOne prices the one direction op through CostShape.
func costOne(ctx *collio.Context, plan *collio.Plan, sh *collio.Shape, rs *collio.RequestSet, op collio.Op,
	opt sim.Options, env collio.FaultEnv) (*collio.FaultResult, error) {
	res, err := collio.CostShape(ctx, plan, sh, rs, []collio.Op{op}, opt, env)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// costReqs prices plan over a set built from reqs under env through the
// one form: BuildShapeSet, which validates plan, then CostShape.
func costReqs(ctx *collio.Context, plan *collio.Plan, reqs []collio.RankRequest, op collio.Op, opt sim.Options,
	env collio.FaultEnv) (*collio.FaultResult, error) {
	rs := collio.NewRequestSet(reqs)
	sh, err := collio.BuildShapeSet(ctx, plan, rs)
	if err != nil {
		return nil, err
	}
	return costOne(ctx, plan, sh, rs, op, opt, env)
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

// pricingCases returns five pinned workloads — dense contiguous
// blocks, a strided pattern with uneven round remainders, contiguous
// blocks over a small stripe unit, so each round slice lands on a span
// of targets that wraps past the last one, the strided pattern on ranks
// placed round-robin over the nodes, and uneven blocks requested in
// shuffled rank order with idle ranks — then n random seeded topologies
// with sparse, overlapping requests and idle ranks, every other one
// striped finely too. The round-robin and shuffled cases are the ones
// whose per-rank lists are not in node order.
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
	interleavedCtx := pricingCtx(t, 16, 4, 8, 8<<10)
	roundRobin := make([]int, 16)
	for r := range roundRobin {
		roundRobin[r] = r % 4
	}
	topo, err := mpi.ExplicitTopology(roundRobin)
	if err != nil {
		t.Fatal(err)
	}
	interleavedCtx.Topo = topo
	var shuffled []collio.RankRequest
	var off int64
	for r := 0; r < 16; r++ {
		if r%5 == 3 {
			continue // idle
		}
		n := int64(1+r%3) * 1500
		shuffled = append(shuffled, collio.RankRequest{Rank: r, Extents: []pfs.Extent{{Offset: off, Length: n}}})
		off += n
	}
	rand.New(rand.NewSource(23)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cases := []pricingCase{
		{pricingCtx(t, 12, 4, 4, 16<<10), contiguous, collio.NewRequestSet(contiguous), opt},
		{pricingCtx(t, 16, 4, 8, 8<<10), strided, collio.NewRequestSet(strided), opt},
		{stripedCtx, striped, collio.NewRequestSet(striped), opt},
		{interleavedCtx, strided, collio.NewRequestSet(strided), opt},
		{pricingCtx(t, 16, 4, 6, 4<<10), shuffled, collio.NewRequestSet(shuffled), opt},
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
		cases = append(cases, pricingCase{ctx, reqs, collio.NewRequestSet(reqs), o})
	}
	return cases
}

// freshPlan builds a plan and fault handler for one run. Recovery
// mutates handler state (and the memory-conscious plan's partition
// trees), so the two runs of a comparison never share either. Pricing
// validates the plan when it builds the shape.
func freshPlan(t *testing.T, c pricingCase, strategy string, spec faults.Spec) (*collio.Plan, collio.FaultHandler) {
	t.Helper()
	switch strategy {
	case "memory-conscious":
		plan, state, err := core.New().PlanWithStateSet(c.ctx, c.rs)
		if err != nil {
			t.Fatal(err)
		}
		return plan, &core.Failover{State: state, Detect: spec.DetectSeconds}
	default:
		plan, err := twophase.New().PlanSet(c.ctx, c.rs)
		if err != nil {
			t.Fatal(err)
		}
		return plan, twophase.NewStallRetry(c.ctx.Avail, spec.StallSeconds)
	}
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

// TestSingleKindSchedulesMatchAllHot prices schedules that hold one
// fault kind each. The loop skips the scans of every fault family a
// schedule lacks: the per-node message and per-target storage hot
// masks, the OST slowdown and the memory-leak boundary loops. The
// bundled run must still match the all-hot walk, which marks every
// node and target hot, and the two gray kinds priced at the boundary
// must still take effect: a slowed target lengthens some run, and a
// leak pages some node.
func TestSingleKindSchedulesMatchAllHot(t *testing.T) {
	trials := 8
	if testing.Short() {
		trials = 3
	}
	kinds := []faults.Kind{faults.NodeCrash, faults.MemCollapse, faults.Straggler, faults.OSTTransient,
		faults.OSTPermanent, faults.MsgDelay, faults.MsgDrop, faults.MsgBitFlip, faults.TornWrite,
		faults.OSTSlowdown, faults.NICFlaky, faults.MemLeak}
	fired := map[faults.Kind]int{}
	var slowed, leaked int
	for ci, c := range pricingCases(t, trials) {
		seed := uint64(ci)*31 + 5
		for _, strategy := range []string{"two-phase", "memory-conscious"} {
			for _, op := range []collio.Op{collio.Write, collio.Read} {
				name := fmt.Sprintf("case %d %s %s", ci, strategy, op)
				clean := cleanParity(t, name+" clean", c, strategy, op, faults.DefaultSpec(seed, 1).WithRate(0))
				spec := faults.DefaultSpec(seed, max(clean.Seconds*4, 1e-9)).WithRate(4).WithGray(2).WithCorruption(2)
				for _, k := range kinds {
					only := func(ev faults.Event) bool { return ev.Kind == k }
					res, err := faultedParity(t, fmt.Sprintf("%s %v only", name, k), c, strategy, op, spec, only)
					if err != nil || res.Injected[k.String()] == 0 {
						continue
					}
					fired[k]++
					if k == faults.OSTSlowdown && res.Seconds > clean.Seconds {
						slowed++
					}
					leaked += res.LeakedNodes
				}
			}
		}
	}
	for _, k := range kinds {
		if fired[k] == 0 {
			t.Errorf("no run priced a schedule holding only %v", k)
		}
	}
	if slowed == 0 || leaked == 0 {
		t.Errorf("gray boundary faults took no effect: %d runs slowed by OST slowdown, %d nodes leaked", slowed, leaked)
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

// cleanParity checks the fault-free forms against each other: CostSet,
// CostShape over a prebuilt shape with the zero env, with a nil and
// with an event-free injector, and the all-hot walk. It returns the
// result.
func cleanParity(t *testing.T, name string, c pricingCase, strategy string, op collio.Op, spec faults.Spec) *collio.CostResult {
	t.Helper()
	plan, handler := freshPlan(t, c, strategy, spec)
	want, err := collio.CostSet(c.ctx, plan, c.rs, op, c.opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sh, err := collio.BuildShapeSet(c.ctx, plan, c.rs)
	if err != nil {
		t.Fatal(err)
	}
	shaped, err := costOne(c.ctx, plan, sh, c.rs, op, c.opt, collio.FaultEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&shaped.CostResult, want) {
		t.Fatalf("%s: CostShape diverges from CostSet\nshape: %+v\ncost:  %+v", name, shaped, want)
	}
	fplan, err := spec.Generate(c.ctx.Topo.Nodes(), c.ctx.FS.Targets)
	if err != nil {
		t.Fatal(err)
	}
	for _, inj := range []*faults.Injector{nil, faults.NewInjector(fplan)} {
		for _, hot := range []bool{false, true} {
			env := collio.FaultEnv{Injector: inj, Handler: handler}
			if hot {
				env = collio.AllHot(env)
			}
			got, err := costOne(c.ctx, plan, sh, c.rs, op, c.opt, env)
			if err != nil {
				t.Fatalf("%s (all hot %v): %v", name, hot, err)
			}
			if !reflect.DeepEqual(got.CostResult, *want) || len(got.Injected) != 0 || got.Injected == nil {
				t.Fatalf("%s (all hot %v): event-free run differs from CostSet\ngot:  %+v\nwant: %+v", name, hot, got, want)
			}
		}
	}
	busy, err := faults.DefaultSpec(1, 10).WithRate(4).Generate(c.ctx.Topo.Nodes(), c.ctx.FS.Targets)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.price(c.ctx, plan, op, collio.FaultEnv{Injector: faults.NewInjector(busy)}); err == nil {
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
	got, gotErr := c.price(c.ctx, plan, op, collio.FaultEnv{Injector: injA, Handler: handler})
	plan, handler = freshPlan(t, c, strategy, spec)
	want, wantErr := c.price(c.ctx, plan, op, collio.AllHot(collio.FaultEnv{Injector: injB, Handler: handler}))
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
// steers pricing: clean and faulted runs with ctx.Obs set return what
// the same runs return unobserved, and on a clean run the engine's
// counters add up to its totals: sim.shuffle_bytes to the shuffled
// bytes, and the per-node net.bytes_out and net.bytes_in to the bytes
// that crossed a NIC, plus the storage stream on the side that carries
// it. It runs
// the strided case on block and on round-robin placement, and the
// shuffled-request case.
func TestObservedPricingMatchesUnobserved(t *testing.T) {
	pinned := pricingCases(t, 0)
	faulted := 0
	for _, c := range []pricingCase{pinned[1], pinned[3], pinned[4]} {
		observedParity(t, c, &faulted)
	}
	if faulted == 0 {
		t.Fatal("no faulted run priced: the observed fault path went unchecked")
	}
}

// observedParity prices c's clean and faulted runs observed and
// unobserved, both strategies and directions, and counts the faulted
// runs in *faulted.
func observedParity(t *testing.T, c pricingCase, faulted *int) {
	t.Helper()
	for _, strategy := range []string{"two-phase", "memory-conscious"} {
		clean := faults.DefaultSpec(3, 1).WithRate(0)
		for _, op := range []collio.Op{collio.Write, collio.Read} {
			plan, _ := freshPlan(t, c, strategy, clean)
			want, err := collio.CostSet(c.ctx, plan, c.rs, op, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			octx := *c.ctx
			octx.Obs = obs.New()
			got, err := collio.CostSet(&octx, plan, c.rs, op, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: observed CostSet differs\nobserved:   %+v\nunobserved: %+v", strategy, op, got, want)
			}
			sums := map[string]float64{}
			for _, p := range octx.Obs.Metrics.Snapshot() {
				sums[p.Name] += p.Value
			}
			tot := got.Totals
			if tot.ShufBytes == 0 || sums["sim.shuffle_bytes"] != float64(tot.ShufBytes) {
				t.Fatalf("%s %s: sim.shuffle_bytes counted %g, the engine shuffled %d", strategy, op, sums["sim.shuffle_bytes"], tot.ShufBytes)
			}
			// A node's NIC also carries its aggregators' storage stream:
			// out on a write, in on a read.
			toStorage, fromStorage := sums["net.bytes_out"], sums["net.bytes_in"]
			if op == collio.Read {
				toStorage, fromStorage = fromStorage, toStorage
			}
			if tot.NetBytes == 0 || fromStorage != float64(tot.NetBytes) || toStorage != float64(tot.NetBytes+tot.IOBytes) {
				t.Fatalf("%s %s: nodes sent %g and received %g bytes; the engine moved %d across NICs and %d to storage",
					strategy, op, sums["net.bytes_out"], sums["net.bytes_in"], tot.NetBytes, tot.IOBytes)
			}

			ref := want.Seconds * 4
			spec := faults.DefaultSpec(3, ref).WithRate(5).WithGray(2).WithCorruption(2)
			run := func(ctx *collio.Context) (*collio.FaultResult, error) {
				fplan, err := spec.Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
				if err != nil {
					t.Fatal(err)
				}
				plan, handler := freshPlan(t, c, strategy, spec)
				return c.price(ctx, plan, op, collio.FaultEnv{Injector: faults.NewInjector(fplan), Handler: handler})
			}
			fwant, wantErr := run(c.ctx)
			octx.Obs = obs.New()
			fgot, gotErr := run(&octx)
			if (wantErr != nil || gotErr != nil) && fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
				t.Fatalf("%s %s: observed error %v, unobserved %v", strategy, op, gotErr, wantErr)
			}
			if !reflect.DeepEqual(fgot, fwant) {
				t.Fatalf("%s %s: observed faulted run differs\nobserved:   %+v\nunobserved: %+v", strategy, op, fgot, fwant)
			}
			if fgot != nil && len(fgot.Injected) > 0 {
				*faulted++
			}
		}
	}
}

// TestCostShapeRejectsOtherPlan checks that a shape priced with a plan
// of another domain count is an error: the shape holds no geometry of
// its own, so it must be priced with the plan it was built from.
func TestCostShapeRejectsOtherPlan(t *testing.T) {
	c := pricingCases(t, 0)[1]
	plan, err := twophase.New().PlanSet(c.ctx, c.rs)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := collio.BuildShapeSet(c.ctx, plan, c.rs)
	if err != nil {
		t.Fatal(err)
	}
	fewer := *plan
	fewer.Domains = plan.Domains[:len(plan.Domains)-1]
	if _, err := costOne(c.ctx, &fewer, sh, c.rs, collio.Write, c.opt, collio.FaultEnv{}); err == nil {
		t.Fatal("a shape of another plan was priced")
	}
}
