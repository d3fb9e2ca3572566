package collio

import (
	"mcio/internal/faults"
	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// The deprecated []RankRequest entry points. Each builds a fresh
// RequestSet per call; the pricing ones, unlike BuildShapeSet, do not
// check the plan.

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

// BuildShape derives plan's round structure over a set built from reqs,
// without validating plan.
//
// Deprecated: use BuildShapeSet.
func BuildShape(ctx *Context, plan *Plan, reqs []RankRequest) (*Shape, error) {
	return buildShape(ctx, plan, NewRequestSet(reqs))
}

// Cost prices plan's clean run over a set built from reqs, without
// validating plan.
//
// Deprecated: use CostSet, or BuildShapeSet with CostShape.
func Cost(ctx *Context, plan *Plan, reqs []RankRequest, op Op, opt sim.Options) (*CostResult, error) {
	res, err := CostWithFaults(ctx, plan, reqs, op, opt, nil, nil)
	if err != nil {
		return nil, err
	}
	return &res.CostResult, nil
}

// CostWithFaults prices plan over a set built from reqs under the
// injector and handler, without validating plan.
//
// Deprecated: use BuildShapeSet with CostShape and a FaultEnv.
func CostWithFaults(ctx *Context, plan *Plan, reqs []RankRequest, op Op, opt sim.Options,
	inj *faults.Injector, handler FaultHandler) (*FaultResult, error) {
	rs := NewRequestSet(reqs)
	sh, err := buildShape(ctx, plan, rs)
	if err != nil {
		return nil, err
	}
	res, err := CostShape(ctx, plan, sh, rs, []Op{op}, opt, FaultEnv{Injector: inj, Handler: handler})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
