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
	"fmt"

	"mcio/internal/collio"
	"mcio/internal/pfs"
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

// Plan implements collio.Strategy: an even offset split like two-phase,
// with every domain boundary rounded down to a stripe-unit multiple, so
// each stripe unit has exactly one owning aggregator.
func (s *Strategy) Plan(ctx *collio.Context, reqs []collio.RankRequest) (*collio.Plan, error) {
	return s.PlanSet(ctx, collio.NewRequestSet(reqs))
}

// PlanSet implements collio.Strategy; Plan describes the split.
func (s *Strategy) PlanSet(ctx *collio.Context, rs *collio.RequestSet) (*collio.Plan, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	perNode := s.AggregatorsPerNode
	if perNode <= 0 {
		perNode = 1
	}
	if rank, ok := collio.InvalidRank(ctx, rs); ok {
		return nil, fmt.Errorf("layoutaware: request for invalid rank %d", rank)
	}
	norm := rs.Union()
	plan := &collio.Plan{Strategy: s.Name(), Groups: 1, GroupRanks: [][]int{rs.RanksWithData()}}
	if len(norm) == 0 {
		collio.RecordPlanMetrics(ctx.Obs, plan)
		return plan, nil
	}

	var aggs []int
	for node := 0; node < ctx.Topo.Nodes(); node++ {
		ranks := ctx.Topo.RanksOnNode(node)
		for i := 0; i < perNode && i < len(ranks); i++ {
			aggs = append(aggs, ranks[i])
		}
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("layoutaware: topology has no ranks")
	}

	su := ctx.FS.StripeUnit
	span := pfs.Span(norm)
	nAggs := int64(len(aggs))
	domSize := (span.Length + nAggs - 1) / nAggs
	// Round the domain size up to a whole stripe unit: the layout-aware
	// alignment that keeps every stripe with a single owner.
	domSize = (domSize + su - 1) / su * su
	if domSize < su {
		domSize = su
	}
	// Align the start down to a stripe boundary too.
	start := span.Offset / su * su
	cur := start
	for i := int64(0); i < nAggs && cur < span.End(); i++ {
		hi := cur + domSize
		if i == nAggs-1 || hi > span.End() {
			hi = span.End()
		}
		exts := pfs.Clip(norm, cur, hi)
		cur = hi
		if len(exts) == 0 {
			continue
		}
		agg := aggs[i]
		node := ctx.Topo.NodeOf(agg)
		buf := ctx.Params.CollBufSize
		var severity float64
		if avail := ctx.Avail[node]; avail < buf {
			severity = float64(buf-avail) / float64(buf)
		}
		plan.Domains = append(plan.Domains, collio.Domain{
			Extents:       exts,
			Bytes:         pfs.TotalBytes(exts),
			Group:         0,
			Aggregator:    agg,
			AggNode:       node,
			BufferBytes:   buf,
			PagedSeverity: severity,
		})
	}
	// The loop above caps the last domain at the span end; if rounding
	// left a tail uncovered (cur < end with all aggregators used), fold
	// it into the final domain.
	if cur < span.End() && len(plan.Domains) > 0 {
		last := &plan.Domains[len(plan.Domains)-1]
		tail := pfs.Clip(norm, cur, span.End())
		last.Extents = pfs.Union([][]pfs.Extent{last.Extents, tail})
		last.Bytes = pfs.TotalBytes(last.Extents)
	}
	collio.RecordPlanMetrics(ctx.Obs, plan)
	return plan, nil
}
