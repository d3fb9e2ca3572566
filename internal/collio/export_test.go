package collio

import (
	"mcio/internal/faults"
	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// CostAllHot prices like CostWithFaults (like Cost with a nil injector)
// with every node and every target hot, so every work item walks its
// contributors per rank and every stripe span is split into one access
// per target: the reference the bundled loop must match bit for bit.
func CostAllHot(ctx *Context, plan *Plan, reqs []RankRequest, op Op, opt sim.Options,
	inj *faults.Injector, handler FaultHandler) (*FaultResult, error) {
	return costSet(ctx, plan, NewRequestSet(reqs), op, opt, faultEnv{inj: inj, handler: handler, allHot: true})
}

// RankContrib is one rank's contribution to a work item.
type RankContrib = faultContrib

// WalkContribs is the per-rank walk every faulted, all-hot and observed
// run once made up front: one ExtentIndex overlap pass over the requests
// in request order, giving each domain's contributor list in that
// order. It is the oracle of the lazy derivation.
func WalkContribs(ctx *Context, plan *Plan, rs *RequestSet) [][]RankContrib {
	contribs := make([][]RankContrib, len(plan.Domains))
	if len(plan.Domains) == 0 {
		return contribs
	}
	buckets := make([][]pfs.Extent, len(plan.Domains))
	for i, d := range plan.Domains {
		buckets[i] = d.Extents
	}
	index := NewExtentIndex(buckets)
	var overlaps []BucketBytes
	for i := range rs.Len() {
		if len(rs.List(i)) == 0 {
			continue
		}
		rank := rs.Rank(i)
		node := ctx.Topo.NodeOf(rank)
		overlaps = index.RequestOverlapAppend(overlaps[:0], rs, i)
		for _, bb := range overlaps {
			contribs[bb.Bucket] = append(contribs[bb.Bucket], RankContrib{Rank: rank, Node: node, Bytes: bb.Bytes})
		}
	}
	return contribs
}

// DerivedContribs builds plan's shape for a run and returns, by domain,
// the per-rank list each work item derives on first use; a domain
// without an item (no rounds) gets nil.
func DerivedContribs(ctx *Context, plan *Plan, rs *RequestSet) [][]RankContrib {
	items, _ := buildShape(ctx, plan, rs).workItems(plan, &rankSource{rs: rs, topo: &ctx.Topo})
	out := make([][]RankContrib, len(plan.Domains))
	for _, it := range items {
		out[it.Domain] = it.rankContribs()
	}
	return out
}

// DerivedLists returns how many per-rank lists work items have derived
// in this process.
func DerivedLists() int64 { return derivedLists.Load() }

// RegrownRuns returns how many priced runs in this process outgrew
// their presized round buffers.
func RegrownRuns() int64 { return regrownRuns.Load() }
