package collio

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// Shape is the round structure of a planned collective operation,
// described without executing it: what the metadata exchange moves
// between nodes, and what each domain's rounds shuffle, as aggregate
// per-route and per-node quantities. The domains' geometry (extents,
// buffer, round count) stays in the plan the shape was built from. A
// shape holds O(aggregators + contributing nodes) numbers, so a
// million-rank operation prices without materializing one message per
// rank. Build it once with BuildShapeSet and price both directions from
// it with CostShape, passing the same plan and request set.
type Shape struct {
	// MetaExchanges is the metadata scatter, one all-to-all exchange per
	// group with aggregators and contributing members: each source node's
	// extent-list bytes to each aggregator slot. The exchange form stays
	// linear in nodes where the per-route form is a dense source × slot
	// product (the whole machine squared, for the single-group two-phase
	// baseline).
	MetaExchanges []sim.Exchange
	// MetaMessages is the number of point-to-point metadata messages the
	// exchanges stand for (one per member rank per group aggregator).
	MetaMessages int
	// Contribs holds, for each plan domain (aligned with Plan.Domains),
	// the nodes shuffling data with its aggregator, ascending by node,
	// pre-split so a run walking the rounds in order reads each round's
	// exact share in amortized constant time (NodeContrib.share).
	Contribs [][]NodeContrib
}

// NodeContrib aggregates one node's shuffle contributions to a domain
// across the domain's rounds. Each rank's contribution is split evenly
// over the rounds (evenShare): round k moves floor(bytes/rounds) plus
// one extra byte while k < bytes%rounds. The per-node aggregate of that
// split is reconstructed exactly from the floor sum and the sorted
// remainder multiset. A NodeContrib is immutable once sealed; the
// position a run has reached in it lives in a shareCursor.
type NodeContrib struct {
	// Node is the contributing compute node.
	Node int
	// Count is the number of contributing ranks on the node.
	Count int
	// Bytes is the node's total contribution to the domain.
	Bytes int64

	floorSum int64    // Σ floor(rankBytes/rounds) over the node's ranks
	posFloor int      // ranks whose floor share is positive
	extra    int      // ranks with a positive remainder rankBytes%rounds
	zero     int      // of those, the ranks whose floor share is zero
	rems     []remRun // the positive remainders as a multiset; sorted, one run per value, once sealed
	steps    []shareStep
}

// remRun is n ranks' equal positive remainder, zero of them with no
// floor share. Ranks of equal block sizes share their remainder, so a
// node's ranks arriving one after another mostly extend one run.
type remRun struct {
	rem     int64
	n, zero int32
}

// shareStep marks a round where a node's share drops: from round at on
// (until the next step) the node moves extra bytes beyond floorSum and
// sends zero messages beyond posFloor — the ranks whose remainder
// exceeds at, and those of them with no floor share. A NodeContrib has
// one step per distinct remainder, ascending, so a run stepping through
// the rounds crosses at most one step per round.
type shareStep struct {
	at          int64
	extra, zero int
}

// shareCursor is one run's position in a NodeContrib: the number of its
// steps at or before the round last priced. It belongs to the run, not
// the shape, so both directions of CostShape and parallel cells read
// one shape.
type shareCursor int32

// share returns the node's exact shuffle bytes and positive-byte message
// count in round k of the domain — the per-rank even split summed over
// the node's ranks — and moves cur to round k. The result depends only
// on k; the cursor makes it cheap: the pricing loop steps k forward one
// round at a time (Done), and back one round on a replay, and each such
// move crosses at most one step.
func (c *NodeContrib) share(cur *shareCursor, k int) (bytes int64, msgs int) {
	kk := int64(k)
	i := int(*cur)
	for i < len(c.steps) && c.steps[i].at <= kk {
		i++
	}
	for i > 0 && c.steps[i-1].at > kk {
		i--
	}
	*cur = shareCursor(i)
	extra, zero := c.extra, c.zero
	if i > 0 {
		extra, zero = c.steps[i-1].extra, c.steps[i-1].zero
	}
	return c.floorSum + int64(extra), c.posFloor + zero
}

// appendSteps appends c's steps, derived from its sealed remainder
// runs, to dst.
func (c *NodeContrib) appendSteps(dst []shareStep) []shareStep {
	extra, zero := c.extra, c.zero
	for _, r := range c.rems {
		extra -= int(r.n)
		zero -= int(r.zero)
		dst = append(dst, shareStep{at: r.rem, extra: extra, zero: zero})
	}
	return dst
}

// add folds one rank's contribution of b bytes, split over rounds, into
// the node aggregate.
func (c *NodeContrib) add(b, rounds int64) {
	c.Count++
	c.Bytes += b
	fl, rem := b/rounds, b%rounds
	c.floorSum += fl
	if fl > 0 {
		c.posFloor++
	}
	if rem == 0 {
		return
	}
	var zero int32
	if fl == 0 {
		zero = 1
	}
	c.extra++
	c.zero += int(zero)
	if k := len(c.rems); k > 0 && c.rems[k-1].rem == rem {
		c.rems[k-1].n++
		c.rems[k-1].zero += zero
		return
	}
	c.rems = append(c.rems, remRun{rem: rem, n: 1, zero: zero})
}

// merge folds o, the same node's aggregate over other ranks, into c.
func (c *NodeContrib) merge(o *NodeContrib) {
	c.Count += o.Count
	c.Bytes += o.Bytes
	c.floorSum += o.floorSum
	c.posFloor += o.posFloor
	c.extra += o.extra
	c.zero += o.zero
	c.rems = append(c.rems, o.rems...)
}

// sealRems sorts c's remainder runs by value and merges the runs of
// equal value in place.
func (c *NodeContrib) sealRems() {
	slices.SortFunc(c.rems, func(a, b remRun) int { return cmp.Compare(a.rem, b.rem) })
	out := c.rems[:0]
	for _, r := range c.rems {
		if n := len(out); n > 0 && out[n-1].rem == r.rem {
			out[n-1].n += r.n
			out[n-1].zero += r.zero
			continue
		}
		out = append(out, r)
	}
	c.rems = out
}

// addContrib folds one rank's b bytes on node, split over rounds, into
// cs, a domain's per-node aggregates in arrival order: a rank on the
// node that arrived last extends its entry, any other starts a new one.
// Ranks arrive in rank order, so under block placement every node
// arrives once; sealContribs merges the repeats of other placements.
func addContrib(cs []NodeContrib, node int, b, rounds int64) []NodeContrib {
	if n := len(cs); n == 0 || cs[n-1].Node != node {
		cs = append(cs, NodeContrib{Node: node})
	}
	cs[len(cs)-1].add(b, rounds)
	return cs
}

// sealContribs orders addContrib's aggregates ascending by node, one
// entry per node, sorts their remainder lists and derives their steps
// (in one allocation for the domain), ready for share.
// Every aggregate field is a sum or a sorted multiset, so the result
// does not depend on the order the ranks arrived in.
func sealContribs(cs []NodeContrib) []NodeContrib {
	slices.SortFunc(cs, func(a, b NodeContrib) int { return cmp.Compare(a.Node, b.Node) })
	out := cs[:0]
	for i := range cs {
		if n := len(out); n > 0 && out[n-1].Node == cs[i].Node {
			out[n-1].merge(&cs[i])
			continue
		}
		out = append(out, cs[i])
	}
	nsteps := 0
	for i := range out {
		out[i].sealRems()
		nsteps += len(out[i].rems)
	}
	steps := make([]shareStep, 0, nsteps) // never regrown: the subslices stay put
	for i := range out {
		start := len(steps)
		steps = out[i].appendSteps(steps)
		out[i].steps = steps[start:len(steps):len(steps)]
	}
	return out
}

// BuildShapeSet derives the round structure of plan for the requests of
// rs. It first checks that plan tiles rs (Plan.ValidateSet), so a shape
// exists only for a valid plan and every price is of one. The result is
// deterministic and is priced together with plan: building it walks
// each rank's request list once (metadata sizes and domain overlaps)
// and never materializes per-rank rounds.
func BuildShapeSet(ctx *Context, plan *Plan, rs *RequestSet) (*Shape, error) {
	if err := plan.ValidateSet(rs); err != nil {
		return nil, err
	}
	return buildShape(ctx, plan, rs)
}

// shapeBuilds counts the shapes built.
var shapeBuilds atomic.Int64

// ShapeBuilds returns how many shapes this process has built: one per
// BuildShapeSet or CostSet call, and one per call of the deprecated
// []RankRequest shims.
func ShapeBuilds() int64 { return shapeBuilds.Load() }

// check reports whether sh can be priced with plan: a shape holds no
// domain geometry of its own, so it must come from a plan with as many
// domains.
func (sh *Shape) check(plan *Plan) error {
	if len(sh.Contribs) != len(plan.Domains) {
		return fmt.Errorf("collio: shape of %d domains priced with a plan of %d", len(sh.Contribs), len(plan.Domains))
	}
	return nil
}

// buildShape is BuildShapeSet without the plan check, which the
// deprecated []RankRequest shims skip.
func buildShape(ctx *Context, plan *Plan, rs *RequestSet) (*Shape, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	rounds := make([]int64, len(plan.Domains))
	buckets := make([][]pfs.Extent, len(plan.Domains))
	var prevEnd int64 = -1
	for i, d := range plan.Domains {
		// The extent index takes the domains as they are, and the shims
		// do not validate the plan: refuse what the index cannot take.
		for _, e := range d.Extents {
			if e.Length <= 0 {
				return nil, fmt.Errorf("collio: plan %s: domain %d has an empty extent", plan.Strategy, i)
			}
			if e.Offset < prevEnd {
				return nil, fmt.Errorf("collio: plan %s: domain %d overlaps or is out of order", plan.Strategy, i)
			}
			prevEnd = e.End()
		}
		rounds[i] = int64(d.Rounds())
		buckets[i] = d.Extents
	}
	shapeBuilds.Add(1)
	sh := &Shape{Contribs: make([][]NodeContrib, len(plan.Domains))}
	sh.MetaExchanges, sh.MetaMessages = buildMetaExchanges(ctx, plan, rs)
	if len(plan.Domains) > 0 {
		// Each domain's list starts in one shared backing array, with
		// room for the two nodes most domains' data spans; a longer list
		// moves out on its own, as append does.
		backing := make([]NodeContrib, 2*len(plan.Domains))
		for i := range sh.Contribs {
			sh.Contribs[i] = backing[2*i : 2*i : 2*i+2]
		}
		index := NewExtentIndex(buckets)
		var overlaps []BucketBytes // one scratch allocation for all requests
		for i := range rs.Len() {
			if len(rs.List(i)) == 0 {
				continue
			}
			node := ctx.Topo.NodeOf(rs.Rank(i))
			overlaps = index.RequestOverlapAppend(overlaps[:0], rs, i)
			for _, bb := range overlaps {
				sh.Contribs[bb.Bucket] = addContrib(sh.Contribs[bb.Bucket], node, bb.Bytes, rounds[bb.Bucket])
			}
		}
	}
	for i, cs := range sh.Contribs {
		if len(cs) == 0 {
			sh.Contribs[i] = nil // a domain no rank shuffles with
			continue
		}
		sh.Contribs[i] = sealContribs(cs)
	}
	return sh, nil
}

// workItems returns the shape of plan, the plan it was built from, as
// fresh work items for one pricing run, in domain order, and the
// domains' total round count. Each item carries the domain's geometry,
// its per-node aggregates and fresh cursors into them. An item derives
// its per-rank list from src when the run first reads it.
func (sh *Shape) workItems(plan *Plan, src *rankSource) (items []*faultItem, totalRounds int) {
	items = make([]*faultItem, 0, len(plan.Domains))
	backing := make([]faultItem, 0, len(plan.Domains))
	ncur := 0
	for _, cs := range sh.Contribs {
		ncur += len(cs)
	}
	cursors := make([]shareCursor, ncur)
	for i, d := range plan.Domains {
		rounds := d.Rounds()
		totalRounds += rounds
		if rounds == 0 {
			continue
		}
		cs := sh.Contribs[i]
		backing = append(backing, faultItem{
			Domain: i,
			Base:   d.Extents,
			Bytes:  d.Bytes,
			Buf:    d.BufferBytes,
			Rounds: rounds,
			Rot:    i,
			src:    src,
			aggs:   cs,
			cur:    cursors[:len(cs):len(cs)],
		})
		cursors = cursors[len(cs):]
		items = append(items, &backing[len(backing)-1])
	}
	return items, totalRounds
}

// buildMetaExchanges derives the metadata scatter in closed form, one
// exchange per group: every member rank ships its flattened extent list
// to each group aggregator. Ranks are folded per source node and
// aggregators per destination node (duplicate aggregator ranks on one
// node are slots, each counting); the engine prices the cross product
// in O(sources + destinations). Returns the exchanges and the
// point-to-point message count they stand for.
func buildMetaExchanges(ctx *Context, plan *Plan, rs *RequestSet) ([]sim.Exchange, int) {
	var exchanges []sim.Exchange
	messages := 0
	// Per-group scratch: the group's source nodes in arrival order, and
	// each node's position in it plus one (zero: not yet seen).
	var srcs []sim.ExchangeSrc
	srcAt := make([]int, ctx.Topo.Nodes())
	for g, aggs := range groupAggregators(plan) {
		ranks := plan.GroupRanks[g]
		if len(aggs) == 0 {
			continue
		}
		srcs = srcs[:0]
		for _, r := range ranks {
			bytes, ok := metaBytes(ctx, rs, r)
			if !ok {
				continue
			}
			node := ctx.Topo.NodeOf(r)
			if srcAt[node] == 0 {
				srcs = append(srcs, sim.ExchangeSrc{Node: node})
				srcAt[node] = len(srcs)
			}
			f := &srcs[srcAt[node]-1]
			f.Bytes += bytes
			f.Count++
		}
		if len(srcs) == 0 {
			continue
		}
		x := sim.Exchange{Srcs: slices.Clone(srcs)}
		srcRanks := 0
		for _, f := range srcs {
			srcAt[f.Node] = 0
			srcRanks += f.Count
		}
		slices.SortFunc(x.Srcs, func(a, b sim.ExchangeSrc) int { return cmp.Compare(a.Node, b.Node) })
		// Receiving slots per aggregator node, kept sorted by node.
		for _, a := range aggs {
			node := ctx.Topo.NodeOf(a)
			i, found := slices.BinarySearchFunc(x.Dsts, node, func(d sim.ExchangeDst, n int) int { return cmp.Compare(d.Node, n) })
			if found {
				x.Dsts[i].Slots++
			} else {
				x.Dsts = slices.Insert(x.Dsts, i, sim.ExchangeDst{Node: node, Slots: 1})
			}
		}
		exchanges = append(exchanges, x)
		messages += srcRanks * len(aggs)
	}
	return exchanges, messages
}

// metaBytes is the extent-list payload rank r ships in the metadata
// scatter: its last request's list, one wire record per extent. A rank
// outside the topology has no node to send from, and a rank without
// data sends nothing; ok is false for both.
func metaBytes(ctx *Context, rs *RequestSet, r int) (bytes int64, ok bool) {
	i := rs.IndexOfRank(r)
	if uint(r) >= uint(ctx.Topo.Size()) || i < 0 || len(rs.List(i)) == 0 {
		return 0, false
	}
	return int64(len(rs.List(i))) * extentListEntryBytes, true
}

// groupAggregators lists each group's distinct aggregator ranks,
// ascending, indexed like plan.GroupRanks.
func groupAggregators(plan *Plan) [][]int {
	aggs := make([][]int, len(plan.GroupRanks))
	for _, d := range plan.Domains {
		if uint(d.Group) < uint(len(aggs)) {
			aggs[d.Group] = append(aggs[d.Group], d.Aggregator)
		}
	}
	for g := range aggs {
		aggs[g] = dedupInts(aggs[g])
	}
	return aggs
}
