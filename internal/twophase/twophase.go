// Package twophase implements the baseline the paper compares against:
// ROMIO's classic two-phase collective I/O. The aggregate access range is
// split evenly by file offset into one file domain per aggregator, with
// exactly one aggregator per compute node (ROMIO's default cb_nodes
// behaviour), a fixed collective buffer (cb_buffer_size), and a single
// global aggregation group — the assignment is "independent of the
// distribution of the data over the process" (§4) and of per-node memory
// availability, which is precisely the weakness the memory-conscious
// strategy targets.
package twophase

import (
	"fmt"

	"mcio/internal/collio"
	"mcio/internal/pfs"
)

// Strategy is the classic two-phase planner.
type Strategy struct {
	// AggregatorsPerNode overrides ROMIO's one-aggregator-per-node
	// default when > 1 (ROMIO hint cb_config_list); ablation experiments
	// use it.
	AggregatorsPerNode int
}

// New returns the default two-phase strategy (one aggregator per node).
func New() *Strategy { return &Strategy{AggregatorsPerNode: 1} }

// Name implements collio.Strategy.
func (s *Strategy) Name() string { return "two-phase" }

// Plan implements collio.Strategy.
func (s *Strategy) Plan(ctx *collio.Context, reqs []collio.RankRequest) (*collio.Plan, error) {
	return s.PlanSet(ctx, collio.NewRequestSet(reqs))
}

// PlanSet implements collio.Strategy.
func (s *Strategy) PlanSet(ctx *collio.Context, rs *collio.RequestSet) (*collio.Plan, error) {
	return PlanEven(ctx, rs, s.Name(), s.AggregatorsPerNode, 1)
}

// PlanEven is the classic two-phase planner, recorded under the strategy
// name: the first perNode ranks of each node aggregate (ROMIO's
// cb_config_list; perNode <= 0 means 1), the aggregate access range is
// split evenly by offset into one file domain per aggregator, and each
// aggregator takes the fixed collective buffer whatever its node has
// free. align snaps every domain boundary to a multiple of it: the
// domain size rounds up to whole units and the first domain starts at
// the unit boundary at or before the data. 1 is the plain even split.
func PlanEven(ctx *collio.Context, rs *collio.RequestSet, name string, perNode int, align int64) (*collio.Plan, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if perNode <= 0 {
		perNode = 1
	}
	if rank, ok := collio.InvalidRank(ctx, rs); ok {
		return nil, fmt.Errorf("%s: request for invalid rank %d", name, rank)
	}
	norm := rs.Union()
	plan := &collio.Plan{Strategy: name, Groups: 1, GroupRanks: [][]int{rs.RanksWithData()}}
	if len(norm) == 0 {
		collio.RecordPlanMetrics(ctx.Obs, plan)
		return plan, nil
	}

	// ROMIO default: the first rank on each node is an I/O aggregator
	// (with perNode > 1, the first perNode ranks).
	var aggs []int
	for node := 0; node < ctx.Topo.Nodes(); node++ {
		ranks := ctx.Topo.RanksOnNode(node)
		for i := 0; i < perNode && i < len(ranks); i++ {
			aggs = append(aggs, ranks[i])
		}
	}
	if len(aggs) == 0 {
		return nil, fmt.Errorf("%s: topology has no ranks", name)
	}

	// Divide the aggregate access range evenly by offset — oblivious to
	// where the data actually is, like ADIOI_Calc_file_domains.
	span := pfs.Span(norm)
	nAggs := int64(len(aggs))
	domSize := (span.Length + nAggs - 1) / nAggs
	domSize = (domSize + align - 1) / align * align
	lo := span.Offset / align * align
	for i := int64(0); i < nAggs && lo < span.End(); i++ {
		hi := lo + domSize
		if i == nAggs-1 || hi > span.End() {
			hi = span.End()
		}
		exts := pfs.Clip(norm, lo, hi)
		lo = hi
		if len(exts) == 0 {
			continue // aggregator with an empty domain sits the call out
		}
		agg := aggs[i]
		node := ctx.Topo.NodeOf(agg)
		buf := ctx.Params.CollBufSize
		// The baseline allocates its fixed buffer regardless of what the
		// host actually has free; the shortfall pages.
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
	collio.RecordPlanMetrics(ctx.Obs, plan)
	return plan, nil
}
