package collio_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/obs"
	"mcio/internal/pfs"
	"mcio/internal/twophase"
)

// TestInvalidPlansAreRefused gives BuildShapeSet and CostSet a plan with
// each defect Plan.ValidateSet names and checks that both refuse it with
// that defect: no shape is built for, and no price put on, a plan that
// does not tile its requests.
func TestInvalidPlansAreRefused(t *testing.T) {
	c := pricingCases(t, 0)[1]
	plan, err := twophase.New().PlanSet(c.ctx, c.rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Domains) < 2 || plan.Domains[0].Extents[0].Length < 2 {
		t.Fatalf("the case's plan is too small to break: %d domains", len(plan.Domains))
	}
	if _, err := collio.BuildShapeSet(c.ctx, plan, c.rs); err != nil {
		t.Fatalf("the unbroken plan is refused: %v", err)
	}
	// broken returns a copy of plan whose first domain f changed.
	broken := func(f func(p *collio.Plan, d *collio.Domain)) *collio.Plan {
		p := *plan
		p.Domains = slices.Clone(plan.Domains)
		p.Domains[0].Extents = slices.Clone(plan.Domains[0].Extents)
		f(&p, &p.Domains[0])
		return &p
	}
	negReqs := append(slices.Clone(c.reqs), collio.RankRequest{Rank: 0,
		Extents: []pfs.Extent{{Offset: 1 << 30, Length: -5}}})
	cases := []struct {
		name string
		plan *collio.Plan
		rs   *collio.RequestSet
		want string
	}{
		{"domains out of order", broken(func(p *collio.Plan, _ *collio.Domain) {
			p.Domains[0], p.Domains[1] = p.Domains[1], p.Domains[0]
		}), c.rs, "overlaps or is out of order"},
		{"short coverage", broken(func(p *collio.Plan, _ *collio.Domain) {
			p.Domains = p.Domains[:len(p.Domains)-1]
		}), c.rs, "cover"},
		{"empty domain", broken(func(_ *collio.Plan, d *collio.Domain) {
			d.Extents, d.Bytes = nil, 0
		}), c.rs, "is empty"},
		{"non-canonical extents", broken(func(_ *collio.Plan, d *collio.Domain) {
			e := d.Extents[0]
			half := pfs.Extent{Offset: e.Offset, Length: e.Length / 2}
			rest := pfs.Extent{Offset: half.End(), Length: e.Length - half.Length}
			d.Extents = append([]pfs.Extent{half, rest}, d.Extents[1:]...)
		}), c.rs, "not canonical"},
		{"no buffer", broken(func(_ *collio.Plan, d *collio.Domain) {
			d.BufferBytes = 0
		}), c.rs, "has no buffer"},
		{"group out of range", broken(func(p *collio.Plan, d *collio.Domain) {
			d.Group = p.Groups
		}), c.rs, "outside [0,"},
		{"negative request extent", plan, collio.NewRequestSet(negReqs), "negative length"},
	}
	for _, tc := range cases {
		if err := tc.plan.ValidateSet(tc.rs); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: ValidateSet = %v, want %q", tc.name, err, tc.want)
		}
		sh, err := collio.BuildShapeSet(c.ctx, tc.plan, tc.rs)
		if err == nil || sh != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: BuildShapeSet = %v, %v; want the refusal %q", tc.name, sh != nil, err, tc.want)
		}
		res, err := collio.CostSet(c.ctx, tc.plan, tc.rs, collio.Write, c.opt)
		if err == nil || res != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: CostSet = %v, %v; want the refusal %q", tc.name, res != nil, err, tc.want)
		}
	}
}

// TestCostShapeObservedMatchesCostSet pins that pricing from a prebuilt
// shape is the one observed path: under an observer, CostShape publishes
// exactly the metrics CostSet does on the same plan — the per-rank mpi.*
// traffic counters and the per-domain collio.shuffle_bytes included —
// and returns the same result.
func TestCostShapeObservedMatchesCostSet(t *testing.T) {
	perRank := []string{"mpi.bytes_sent", "mpi.msgs_sent", "mpi.bytes_recv", "mpi.msgs_recv", "collio.shuffle_bytes"}
	for ci, c := range pricingCases(t, 0) {
		plan, err := twophase.New().PlanSet(c.ctx, c.rs)
		if err != nil {
			t.Fatal(err)
		}
		// The shape never depends on the observer: build it unobserved.
		sh, err := collio.BuildShapeSet(c.ctx, plan, c.rs)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []collio.Op{collio.Write, collio.Read} {
			setCtx, shapeCtx := *c.ctx, *c.ctx
			setCtx.Obs, shapeCtx.Obs = obs.New(), obs.New()
			want, err := collio.CostSet(&setCtx, plan, c.rs, op, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := collio.CostShape(&shapeCtx, plan, sh, c.rs, op, c.opt, collio.FaultEnv{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&got.CostResult, want) {
				t.Fatalf("case %d %s: CostShape result differs from CostSet\ngot  %+v\nwant %+v", ci, op, got.CostResult, *want)
			}
			wantSnap, gotSnap := setCtx.Obs.Metrics.Snapshot(), shapeCtx.Obs.Metrics.Snapshot()
			if !reflect.DeepEqual(gotSnap, wantSnap) {
				t.Fatalf("case %d %s: CostShape published %d metric points, CostSet %d, or their values differ",
					ci, op, len(gotSnap), len(wantSnap))
			}
			total := map[string]float64{}
			for _, m := range gotSnap {
				total[m.Name] += m.Value
			}
			for _, name := range perRank {
				if total[name] == 0 {
					t.Fatalf("case %d %s: CostShape published no %s", ci, op, name)
				}
			}
		}
	}
}
