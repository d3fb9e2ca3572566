package collio

import (
	"sort"

	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// Shape is the round structure of a planned collective operation,
// described without executing it: what the metadata exchange moves
// between nodes, and what every data round shuffles and stores, as
// aggregate per-route and per-node quantities. It holds O(aggregators +
// contributing nodes) numbers, so a million-rank operation prices
// without materializing one message per rank. Build it once with
// BuildShape and price both directions from it with CostShape.
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
	// Domains holds one entry per plan domain, aligned with
	// Plan.Domains.
	Domains []DomainShape
}

// DomainShape is one file domain's round structure: its geometry plus
// the per-node shuffle contributions, pre-split so any round's exact
// share is a binary search away.
type DomainShape struct {
	// Index is the domain's position in Plan.Domains; the cyclic round
	// stagger is keyed on it.
	Index int
	// Rounds is Domain.Rounds(): collective-buffer cycles to drain the
	// domain.
	Rounds int
	// BufferBytes is the aggregator's collective buffer.
	BufferBytes int64
	// Extents aliases the domain's (normalized) data extents.
	Extents []pfs.Extent
	// Contribs lists the nodes shuffling data with the aggregator,
	// ascending by node.
	Contribs []NodeContrib
}

// NodeContrib aggregates one node's shuffle contributions to a domain
// across the domain's rounds. Each rank's contribution is split evenly
// over the rounds (evenShare): round k moves floor(bytes/rounds) plus
// one extra byte while k < bytes%rounds. The per-node aggregate of that
// split is reconstructed exactly from the floor sum and the sorted
// remainder multiset.
type NodeContrib struct {
	// Node is the contributing compute node.
	Node int
	// Count is the number of contributing ranks on the node.
	Count int
	// Bytes is the node's total contribution to the domain.
	Bytes int64

	floorSum int64   // Σ floor(rankBytes/rounds) over the node's ranks
	posFloor int     // ranks whose floor share is positive
	rems     []int64 // positive remainders rankBytes%rounds, sorted
	remsZero []int64 // subset of rems where the floor share is zero, sorted
}

// RoundShare returns the node's exact shuffle bytes and positive-byte
// message count in round k of the domain: the per-rank even split,
// summed over the node's ranks.
func (c *NodeContrib) RoundShare(k int) (bytes int64, msgs int) {
	kk := int64(k)
	extra := len(c.rems) - sort.Search(len(c.rems), func(i int) bool { return c.rems[i] > kk })
	zero := len(c.remsZero) - sort.Search(len(c.remsZero), func(i int) bool { return c.remsZero[i] > kk })
	return c.floorSum + int64(extra), c.posFloor + zero
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
	if rem > 0 {
		c.rems = append(c.rems, rem)
		if fl == 0 {
			c.remsZero = append(c.remsZero, rem)
		}
	}
}

// sortedContribs seals per-node aggregates into a slice ascending by
// node, ready for RoundShare.
func sortedContribs(byNode map[int]*NodeContrib) []NodeContrib {
	out := make([]NodeContrib, 0, len(byNode))
	for _, nc := range byNode {
		sortInt64s(nc.rems)
		sortInt64s(nc.remsZero)
		out = append(out, *nc)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Node < out[b].Node })
	return out
}

// BuildShape derives the round structure of plan for the given requests.
// The result is deterministic and self-contained: building it walks each
// rank's request list once (metadata sizes and domain overlaps) and
// never materializes per-rank rounds.
func BuildShape(ctx *Context, plan *Plan, reqs []RankRequest) (*Shape, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	sh := &Shape{}
	sh.MetaExchanges, sh.MetaMessages = buildMetaExchanges(ctx, plan, reqs, nil)
	// Domain shapes: geometry plus per-node contribution aggregates.
	sh.Domains = make([]DomainShape, len(plan.Domains))
	buckets := make([][]pfs.Extent, len(plan.Domains))
	contribs := make([]map[int]*NodeContrib, len(plan.Domains))
	for i, d := range plan.Domains {
		sh.Domains[i] = DomainShape{
			Index:       i,
			Rounds:      d.Rounds(),
			BufferBytes: d.BufferBytes,
			Extents:     d.Extents,
		}
		buckets[i] = d.Extents
		contribs[i] = map[int]*NodeContrib{}
	}
	if len(plan.Domains) > 0 {
		index := NewExtentIndex(buckets)
		var overlaps []BucketBytes // one scratch allocation for all requests
		for _, r := range reqs {
			if len(r.Extents) == 0 {
				continue
			}
			node := ctx.Topo.NodeOf(r.Rank)
			overlaps = index.OverlapAppend(overlaps[:0], r.Extents)
			for _, bb := range overlaps {
				nc := contribs[bb.Bucket][node]
				if nc == nil {
					nc = &NodeContrib{Node: node}
					contribs[bb.Bucket][node] = nc
				}
				nc.add(bb.Bytes, int64(sh.Domains[bb.Bucket].Rounds))
			}
		}
	}
	for i := range sh.Domains {
		sh.Domains[i].Contribs = sortedContribs(contribs[i])
	}
	return sh, nil
}

// faultShape returns the shape as fresh work items for the pricing
// loop, in domain order, each carrying its per-node aggregates and no
// per-rank list.
func (sh *Shape) faultShape(plan *Plan) *faultShape {
	fs := &faultShape{meta: sh.MetaExchanges, items: make([]*faultItem, 0, len(sh.Domains))}
	backing := make([]faultItem, 0, len(sh.Domains))
	for i := range sh.Domains {
		d := &sh.Domains[i]
		fs.totalRounds += d.Rounds
		if d.Rounds == 0 {
			continue
		}
		backing = append(backing, faultItem{
			Domain: d.Index,
			Base:   d.Extents,
			Bytes:  plan.Domains[d.Index].Bytes,
			Buf:    d.BufferBytes,
			Rounds: d.Rounds,
			Rot:    d.Index,
			aggs:   d.Contribs,
		})
		fs.items = append(fs.items, &backing[len(backing)-1])
	}
	return fs
}

// buildMetaExchanges derives the metadata scatter in closed form, one
// exchange per group: every member rank ships its flattened extent list
// to each group aggregator. Ranks are folded per source node and
// aggregators per destination node (duplicate aggregator ranks on one
// node are slots, each counting); the engine prices the cross product
// in O(sources + destinations). Returns the exchanges and the
// point-to-point message count they stand for. A non-nil co counts each
// of those messages per rank.
func buildMetaExchanges(ctx *Context, plan *Plan, reqs []RankRequest, co *costObs) ([]sim.Exchange, int) {
	extCount := make(map[int]int, len(reqs))
	for _, r := range reqs {
		extCount[r.Rank] = len(pfs.Normalized(r.Extents))
	}
	aggsByGroup := make(map[int][]int)
	for _, d := range plan.Domains {
		aggsByGroup[d.Group] = append(aggsByGroup[d.Group], d.Aggregator)
	}
	var exchanges []sim.Exchange
	messages := 0
	srcBytes := map[int]*sim.ExchangeSrc{} // per-group scratch: src node -> bytes, rank count
	for g, ranks := range plan.GroupRanks {
		aggs := dedupInts(aggsByGroup[g])
		if len(aggs) == 0 {
			continue
		}
		clear(srcBytes)
		for _, r := range ranks {
			bytes := int64(extCount[r]) * extentListEntryBytes
			if bytes == 0 {
				continue
			}
			node := ctx.Topo.NodeOf(r)
			f := srcBytes[node]
			if f == nil {
				f = &sim.ExchangeSrc{Node: node}
				srcBytes[node] = f
			}
			f.Bytes += bytes
			f.Count++
			if co != nil {
				for _, a := range aggs {
					co.transfer(r, a, bytes)
				}
			}
		}
		if len(srcBytes) == 0 {
			continue
		}
		x := sim.Exchange{Srcs: make([]sim.ExchangeSrc, 0, len(srcBytes))}
		srcRanks := 0
		for _, f := range srcBytes {
			x.Srcs = append(x.Srcs, *f)
			srcRanks += f.Count
		}
		sort.Slice(x.Srcs, func(i, j int) bool { return x.Srcs[i].Node < x.Srcs[j].Node })
		slots := map[int]int{}
		for _, a := range aggs {
			slots[ctx.Topo.NodeOf(a)]++
		}
		x.Dsts = make([]sim.ExchangeDst, 0, len(slots))
		for node, n := range slots {
			x.Dsts = append(x.Dsts, sim.ExchangeDst{Node: node, Slots: n})
		}
		sort.Slice(x.Dsts, func(i, j int) bool { return x.Dsts[i].Node < x.Dsts[j].Node })
		exchanges = append(exchanges, x)
		messages += srcRanks * len(aggs)
	}
	return exchanges, messages
}

// sortInt64s sorts xs ascending.
func sortInt64s(xs []int64) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}
