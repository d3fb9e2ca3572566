// Package fastsim is the former home of the analytical pricing path.
// collio now prices every run through one loop, bundling per-node
// traffic wherever no fault state forbids it, so this package only
// forwards to it.
//
// Deprecated: use collio.BuildShapeSet with collio.CostShape.
package fastsim

import (
	"mcio/internal/collio"
	"mcio/internal/faults"
	"mcio/internal/sim"
)

// Sim is a planned collective operation with its requests held in one
// set and its round structure built.
//
// Deprecated: use collio.BuildShapeSet and collio.CostShape.
type Sim struct {
	ctx   *collio.Context
	plan  *collio.Plan
	rs    *collio.RequestSet
	shape *collio.Shape
}

// New derives the round structure of plan for the given requests. Like
// collio.BuildShape, it does not validate plan.
//
// Deprecated: use collio.BuildShapeSet.
func New(ctx *collio.Context, plan *collio.Plan, reqs []collio.RankRequest) (*Sim, error) {
	shape, err := collio.BuildShape(ctx, plan, reqs)
	if err != nil {
		return nil, err
	}
	return &Sim{ctx: ctx, plan: plan, rs: collio.NewRequestSet(reqs), shape: shape}, nil
}

// Shape exposes the derived round structure.
//
// Deprecated: use collio.BuildShapeSet.
func (s *Sim) Shape() *collio.Shape { return s.shape }

// Cost prices one direction of the operation.
//
// Deprecated: use collio.CostShape.
func (s *Sim) Cost(op collio.Op, opt sim.Options) (*collio.CostResult, error) {
	res, err := collio.CostShape(s.ctx, s.plan, s.shape, s.rs, []collio.Op{op}, opt, collio.FaultEnv{})
	if err != nil {
		return nil, err
	}
	return &res[0].CostResult, nil
}

// CostWithFaults prices a faulted run.
//
// Deprecated: use collio.BuildShapeSet with collio.CostShape.
func CostWithFaults(ctx *collio.Context, plan *collio.Plan, reqs []collio.RankRequest,
	op collio.Op, opt sim.Options, inj *faults.Injector, handler collio.FaultHandler) (*collio.FaultResult, error) {
	return collio.CostWithFaults(ctx, plan, reqs, op, opt, inj, handler)
}
