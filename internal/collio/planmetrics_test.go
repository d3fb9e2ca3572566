package collio_test

import (
	"testing"

	"mcio/internal/collio"
	"mcio/internal/obs"
)

// TestPlannersRecordPlanMetrics checks that every planner publishes its
// plan's domain count on both return paths: a plan over data and the
// empty plan of a call where no rank moves bytes.
func TestPlannersRecordPlanMetrics(t *testing.T) {
	for ci, c := range pricingCases(t, 0) {
		idle := make([]collio.RankRequest, len(c.reqs))
		for i, r := range c.reqs {
			idle[i] = collio.RankRequest{Rank: r.Rank}
		}
		for _, s := range strategies() {
			for name, reqs := range map[string][]collio.RankRequest{"data": c.reqs, "idle": idle} {
				ctx := *c.ctx
				ctx.Obs = obs.New()
				plan, err := s.Plan(&ctx, reqs)
				if err != nil {
					t.Fatalf("case %d/%s/%s: %v", ci, s.Name(), name, err)
				}
				if name == "data" && len(plan.Domains) == 0 {
					t.Fatalf("case %d/%s/%s: no domains planned", ci, s.Name(), name)
				}
				got := ctx.Obs.Gauge("plan.domains", obs.L("strategy", plan.Strategy)).Value()
				if got != float64(len(plan.Domains)) {
					t.Errorf("case %d/%s/%s: plan.domains = %v, want %d", ci, s.Name(), name, got, len(plan.Domains))
				}
				if groups := ctx.Obs.Gauge("plan.groups", obs.L("strategy", plan.Strategy)).Value(); groups != float64(plan.Groups) {
					t.Errorf("case %d/%s/%s: plan.groups = %v, want %d", ci, s.Name(), name, groups, plan.Groups)
				}
			}
		}
	}
}
