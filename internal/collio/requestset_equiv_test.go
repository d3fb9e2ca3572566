package collio_test

import (
	"reflect"
	"strings"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/faults"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/twophase"
	"mcio/internal/workload"
)

// equivInputs are request lists the set path and the per-call wrappers
// must agree on: canonical and contiguous, strided and interleaved,
// unbalanced, and lists that are unsorted, overlapping or hold
// zero-length extents.
func equivInputs() map[string][]collio.RankRequest {
	messy := faultReqs(12, 1<<16)
	for i := range messy {
		e := messy[i].Extents[0]
		half := pfs.Extent{Offset: e.Offset + e.Length/2, Length: e.Length / 2}
		messy[i].Extents = []pfs.Extent{half, {Offset: e.Offset, Length: e.Length/2 + 7}, {Offset: e.Offset + 3}}
	}
	return map[string][]collio.RankRequest{
		"contiguous": faultReqs(12, 1<<18),
		"strided":    workload.Strided(12, 40, 1<<12),
		"unbalanced": workload.Unbalanced(12, 1<<14),
		"messy":      messy,
	}
}

// Plans, shapes and prices from a request set are reflect.DeepEqual to
// those of the []RankRequest wrappers, for every strategy, clean and
// faulted.
func TestRequestSetPathMatchesWrappers(t *testing.T) {
	ctx := faultCtx(t)
	opt := sim.DefaultOptions()
	opt.Trace = true
	for name, reqs := range equivInputs() {
		rs := collio.NewRequestSet(reqs)
		for _, s := range strategies() {
			label := name + "/" + s.Name()
			want, err := s.Plan(ctx, reqs)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			got, err := s.PlanSet(ctx, rs)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: PlanSet differs from Plan:\n got %+v\nwant %+v", label, got, want)
			}
			if err := got.ValidateSet(rs); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			wantSh, err := collio.BuildShape(ctx, want, reqs)
			if err != nil {
				t.Fatal(err)
			}
			gotSh, err := collio.BuildShapeSet(ctx, got, rs)
			if err != nil || !reflect.DeepEqual(gotSh, wantSh) {
				t.Fatalf("%s: BuildShapeSet differs from BuildShape (%v)", label, err)
			}
			for _, op := range []collio.Op{collio.Write, collio.Read} {
				wantRes, err := collio.Cost(ctx, want, reqs, op, opt)
				if err != nil {
					t.Fatal(err)
				}
				gotRes, err := collio.CostSet(ctx, got, rs, op, opt)
				if err != nil || !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("%s %s: CostSet differs from Cost (%v)", label, op, err)
				}
			}
		}
		// Faulted: a node crash mid-operation, each strategy with its
		// handler, priced through both entries.
		spec := faults.DefaultSpec(1, 100).WithRate(0)
		for _, strategy := range []string{"two-phase", "memory-conscious"} {
			price := func(set bool) *collio.FaultResult {
				var plan *collio.Plan
				var handler collio.FaultHandler
				var err error
				if strategy == "memory-conscious" {
					var state *core.RecoveryState
					if set {
						plan, state, err = core.New().PlanWithStateSet(ctx, rs)
					} else {
						plan, state, err = core.New().PlanWithState(ctx, reqs)
					}
					handler = &core.Failover{State: state, Detect: spec.DetectSeconds}
				} else {
					plan, err = twophase.New().Plan(ctx, reqs)
					handler = twophase.NewStallRetry(ctx.Avail, 0.01)
				}
				if err != nil {
					t.Fatal(err)
				}
				inj := faults.NewInjector(crashPlan(spec, 1, 1e-4))
				var res *collio.FaultResult
				if set {
					sh, serr := collio.BuildShapeSet(ctx, plan, rs)
					if serr != nil {
						t.Fatal(serr)
					}
					res, err = collio.CostShape(ctx, plan, sh, rs, collio.Write, opt,
						collio.FaultEnv{Injector: inj, Handler: handler})
				} else {
					res, err = collio.CostWithFaults(ctx, plan, reqs, collio.Write, opt, inj, handler)
				}
				if err != nil {
					t.Fatalf("%s/%s: %v", name, strategy, err)
				}
				return res
			}
			if got, want := price(true), price(false); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%s: CostShape differs from CostWithFaults:\n got %+v\nwant %+v",
					name, strategy, got, want)
			}
		}
		if got, want := core.DivideGroupsSet(ctx, rs), core.DivideGroups(ctx, reqs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: DivideGroupsSet differs from DivideGroups", name)
		}
	}
}

// Validate keeps its error texts: the set records the first negative
// request extent, and the coverage checks read the set's union.
func TestValidateErrorTexts(t *testing.T) {
	ctx := faultCtx(t)
	reqs := faultReqs(4, 100)
	plan, err := twophase.New().Plan(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	neg := append([]collio.RankRequest(nil), reqs...)
	neg[2].Extents = []pfs.Extent{{Offset: 200, Length: 100}, {Offset: 900, Length: -4}, {Offset: 950, Length: -9}}
	neg[3].Extents = []pfs.Extent{{Offset: 300, Length: -1}}
	short := append([]collio.RankRequest(nil), reqs...)
	short = append(short, collio.RankRequest{Rank: 3, Extents: []pfs.Extent{{Offset: 1000, Length: 10}}})
	moved := append([]collio.RankRequest(nil), reqs...)
	moved[3].Extents = []pfs.Extent{{Offset: 300, Length: 99}}
	for _, c := range []struct {
		reqs []collio.RankRequest
		want string
	}{
		{neg, "collio: plan two-phase: rank 2 requests an extent of negative length -4"},
		{short, "collio: plan two-phase: domains cover 1 extents, requests need 2"},
		{moved, "collio: plan two-phase: coverage mismatch at extent 0: {0 400} != {0 399}"},
	} {
		for _, err := range []error{plan.Validate(c.reqs), plan.ValidateSet(collio.NewRequestSet(c.reqs))} {
			if err == nil || err.Error() != c.want {
				t.Errorf("Validate = %v, want %q", err, c.want)
			}
		}
	}
	if err := plan.Validate(reqs); err != nil {
		t.Fatal(err)
	}
	// The planners reject a rank outside the topology by its first
	// occurrence, as they did reading the list themselves.
	bad := append([]collio.RankRequest(nil), reqs...)
	bad[1].Rank, bad[3].Rank = 99, -1
	for _, s := range strategies() {
		_, err := s.Plan(ctx, bad)
		if err == nil || !strings.HasSuffix(err.Error(), "request for invalid rank 99") {
			t.Errorf("%s: err = %v, want the first invalid rank, 99", s.Name(), err)
		}
	}
}
