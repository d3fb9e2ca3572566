// Package layoutaware implements the layout-aware collective I/O strategy
// the paper's related-work section compares against (LACIO, Chen et al.,
// IPDPS'11): classic two-phase aggregation, but with file-domain
// boundaries snapped to the parallel file system's stripe layout so that
// no two aggregators ever touch the same stripe unit.
//
// It shares the baseline's weaknesses the paper targets — fixed
// one-aggregator-per-node placement, no memory awareness — which makes it
// the natural third point of comparison: layout awareness alone versus
// memory consciousness alone.
package layoutaware

import (
	"mcio/internal/collio"
	"mcio/internal/twophase"
)

// Strategy is the layout-aware planner.
type Strategy struct {
	// AggregatorsPerNode mirrors the two-phase knob; default 1.
	AggregatorsPerNode int
}

// New returns the default layout-aware strategy.
func New() *Strategy { return &Strategy{AggregatorsPerNode: 1} }

// Name implements collio.Strategy.
func (s *Strategy) Name() string { return "layout-aware" }

// Plan implements collio.Strategy: PlanSet over a set built from reqs.
//
// Deprecated: build one set with collio.NewRequestSet and call PlanSet.
func (s *Strategy) Plan(ctx *collio.Context, reqs []collio.RankRequest) (*collio.Plan, error) {
	return s.PlanSet(ctx, collio.NewRequestSet(reqs))
}

// PlanSet implements collio.Strategy: an even offset split like
// two-phase, with every domain boundary rounded down to a stripe-unit
// multiple, so each stripe unit has exactly one owning aggregator. It is
// two-phase's planner with the stripe unit as the alignment.
func (s *Strategy) PlanSet(ctx *collio.Context, rs *collio.RequestSet) (*collio.Plan, error) {
	return twophase.PlanEven(ctx, rs, s.Name(), s.AggregatorsPerNode, ctx.FS.StripeUnit)
}
