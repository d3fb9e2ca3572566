package collio_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/faults"
	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
)

// TestPairedDirectionsMatchSolo checks the walk that prices both
// directions at once: over the pricing cases and both strategies, one
// CostShape call for write and read returns exactly what two calls of
// one direction each return — price, totals with the per-node shuffle
// bytes, trace and rounds — in either order of the two. A walk of both
// directions is refused with an injector, an adaptive policy, the
// all-hot walk, an observer or a timeline, and any list of directions
// but one, or write and read, is refused.
func TestPairedDirectionsMatchSolo(t *testing.T) {
	clean := faults.DefaultSpec(1, 1).WithRate(0)
	for ci, c := range pricingCases(t, 16) {
		for _, strategy := range []string{"two-phase", "memory-conscious"} {
			name := fmt.Sprintf("case %d %s", ci, strategy)
			plan, _ := freshPlan(t, c, strategy, clean)
			sh, err := collio.BuildShapeSet(c.ctx, plan, c.rs)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			solo := map[collio.Op]*collio.FaultResult{}
			for _, op := range []collio.Op{collio.Write, collio.Read} {
				if solo[op], err = costOne(c.ctx, plan, sh, c.rs, op, c.opt, collio.FaultEnv{}); err != nil {
					t.Fatalf("%s %s: %v", name, op, err)
				}
			}
			for _, ops := range [][]collio.Op{{collio.Write, collio.Read}, {collio.Read, collio.Write}} {
				paired, err := collio.CostShape(c.ctx, plan, sh, c.rs, ops, c.opt, collio.FaultEnv{})
				if err != nil {
					t.Fatalf("%s %v: %v", name, ops, err)
				}
				if len(paired) != len(ops) {
					t.Fatalf("%s %v: %d results", name, ops, len(paired))
				}
				for i, op := range ops {
					got, want := paired[i], solo[op]
					if got.Op != op || len(got.Trace) == 0 || got.Totals.ShufBytes == 0 {
						t.Fatalf("%s %v: result %d is %s with %d trace entries and %d shuffled bytes",
							name, ops, i, got.Op, len(got.Trace), got.Totals.ShufBytes)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %v: paired %s differs from the solo run\npaired: %+v\nsolo:   %+v", name, ops, op, got, want)
					}
				}
			}
		}
	}

	c := pricingCases(t, 0)[1]
	plan, handler := freshPlan(t, c, "memory-conscious", clean)
	sh, err := collio.BuildShapeSet(c.ctx, plan, c.rs)
	if err != nil {
		t.Fatal(err)
	}
	fplan, err := faults.DefaultSpec(1, 10).WithRate(4).Generate(c.ctx.Topo.Nodes(), c.ctx.FS.Targets)
	if err != nil {
		t.Fatal(err)
	}
	observed, recorded := *c.ctx, *c.ctx
	observed.Obs = obs.New()
	recorded.Timeline = timeline.NewRecorder(0, 0)
	both := []collio.Op{collio.Write, collio.Read}
	for _, bad := range []struct {
		conflict string
		ctx      *collio.Context
		env      collio.FaultEnv
	}{
		{"a fault injector", c.ctx, collio.FaultEnv{Injector: faults.NewInjector(fplan), Handler: handler}},
		{"an adaptive policy", c.ctx, collio.FaultEnv{Adaptive: &collio.Adaptive{}}},
		{"the all-hot walk", c.ctx, collio.AllHot(collio.FaultEnv{})},
		{"an observer", &observed, collio.FaultEnv{}},
		{"a timeline", &recorded, collio.FaultEnv{}},
	} {
		res, err := collio.CostShape(bad.ctx, plan, sh, c.rs, both, c.opt, bad.env)
		if err == nil || res != nil || !strings.Contains(err.Error(), bad.conflict) {
			t.Fatalf("two directions with %s: %v, %v; want an error naming it", bad.conflict, res, err)
		}
		// One direction alone prices under the same conditions.
		if _, err := collio.CostShape(bad.ctx, plan, sh, c.rs, both[:1], c.opt, bad.env); err != nil {
			t.Fatalf("one direction with %s: %v", bad.conflict, err)
		}
	}
	for _, ops := range [][]collio.Op{nil, {collio.Write, collio.Write}, {collio.Read, collio.Read}, {collio.Write, collio.Read, collio.Write}} {
		if _, err := collio.CostShape(c.ctx, plan, sh, c.rs, ops, c.opt, collio.FaultEnv{}); err == nil {
			t.Fatalf("directions %v priced without an error", ops)
		}
	}
}
