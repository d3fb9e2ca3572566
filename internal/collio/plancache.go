package collio

import "mcio/internal/pfs"

// CachedPlan plans reqs with s and validates the plan against the same
// request set, so the union is computed once for both.
//
// Deprecated: planning has no memo. Build one set with NewRequestSet,
// then call s.PlanSet and Plan.ValidateSet on it.
func CachedPlan(s Strategy, ctx *Context, reqs []RankRequest) (*Plan, error) {
	rs := NewRequestSet(reqs)
	plan, err := s.PlanSet(ctx, rs)
	if err != nil {
		return nil, err
	}
	if err := plan.ValidateSet(rs); err != nil {
		return nil, err
	}
	return plan, nil
}

// ResetPlanCache drops the scratch pfs.Union keeps between calls, so the
// plans that follow allocate as the first plans of a fresh process do.
//
// Deprecated: planning has no memo; call pfs.ReleaseUnionScratch.
func ResetPlanCache() { pfs.ReleaseUnionScratch() }
