package collio

import "mcio/internal/pfs"

// AllHot returns env with every node and every target hot, so every
// work item walks its contributors per rank and every stripe span is
// split into one access per target: priced with CostShape, the
// reference the bundled loop must match bit for bit.
func AllHot(env FaultEnv) FaultEnv {
	env.allHot = true
	return env
}

// RankContrib is one request's contribution to a work item.
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
		node := ctx.Topo.NodeOf(rs.Rank(i))
		overlaps = index.RequestOverlapAppend(overlaps[:0], rs, i)
		for _, bb := range overlaps {
			contribs[bb.Bucket] = append(contribs[bb.Bucket], RankContrib{Req: i, Node: node, Bytes: bb.Bytes})
		}
	}
	return contribs
}

// DerivedContribs builds plan's shape for a run and returns, by domain,
// the per-rank list each work item derives on first use; a domain
// without an item (no rounds) gets nil.
func DerivedContribs(ctx *Context, plan *Plan, rs *RequestSet) [][]RankContrib {
	sh, err := buildShape(ctx, plan, rs)
	if err != nil {
		panic(err)
	}
	items, _ := sh.workItems(plan, &rankSource{rs: rs, topo: &ctx.Topo})
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
