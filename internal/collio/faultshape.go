package collio

import (
	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// faultContrib is one rank's contribution to a work item: the per-rank
// granularity the hot branch walks and recovery folds.
type faultContrib struct {
	Rank  int
	Node  int
	Bytes int64
}

// faultItem is a unit of remaining shuffle+I/O work in the pricing
// loop. One item starts per non-empty plan domain; a recovery folds an
// item's remaining work into a fresh item bound to the absorbing (or
// re-placed) domain. Items reference live domains by index for
// placement, so later reassignments of the same domain move them too.
// Healthy items price from per-node aggregates (aggs); items touching a
// hot node walk Contribs per rank.
type faultItem struct {
	Domain   int // index into the live domain set; placement is read per round
	Base     []pfs.Extent
	Bytes    int64
	Buf      int64
	Rounds   int
	Done     int
	Rot      int // slice stagger rotation (domain index at creation)
	Contribs []faultContrib

	aggs []NodeContrib // per-node aggregates, built from Contribs on first use
	cur  []shareCursor // this run's position in each of aggs
}

// Active reports whether the item still has rounds to run.
func (it *faultItem) Active() bool { return it.Bytes > 0 && it.Done < it.Rounds }

// nodeAggs returns the item's per-node contribution aggregates and the
// run's cursors into them, building both from Contribs on first use.
// Each NodeContrib reconstructs the node's exact per-round share of the
// per-rank even split (NodeContrib.share), so aggregate pricing is
// bit-identical to walking the ranks.
func (it *faultItem) nodeAggs() ([]NodeContrib, []shareCursor) {
	if it.aggs == nil {
		rounds := int64(max(it.Rounds, 1))
		var cs []NodeContrib
		for _, c := range it.Contribs {
			cs = addContrib(cs, c.Node, c.Bytes, rounds)
		}
		it.aggs = sealContribs(cs)
	}
	if it.cur == nil {
		it.cur = make([]shareCursor, len(it.aggs))
	}
	return it.aggs, it.cur
}

// evenShare is the front-loaded even split of one rank's contribution:
// step s of rounds moves b/rounds bytes, plus one while s < b mod
// rounds. NodeContrib.share is its exact per-node aggregate.
func evenShare(b int64, s, rounds int) int64 {
	per := b / int64(rounds)
	if int64(s) < b%int64(rounds) {
		per++
	}
	return per
}

// remaining returns the item's unmoved extents and per-contributor
// bytes after the steps it has completed (slices are staggered, so the
// remainder is the union of the uncompleted slices).
func (it *faultItem) remaining() ([]pfs.Extent, []faultContrib) {
	if it.Done == 0 {
		return it.Base, it.Contribs
	}
	var rem []pfs.Extent
	for j := it.Done; j < it.Rounds; j++ {
		idx := (j + it.Rot) % it.Rounds
		rem = append(rem, pfs.SliceData(it.Base, int64(idx)*it.Buf, it.Buf)...)
	}
	var cs []faultContrib
	for _, c := range it.Contribs {
		moved := int64(it.Done)*(c.Bytes/int64(it.Rounds)) + min(int64(it.Done), c.Bytes%int64(it.Rounds))
		if left := c.Bytes - moved; left > 0 {
			cs = append(cs, faultContrib{Rank: c.Rank, Node: c.Node, Bytes: left})
		}
	}
	return pfs.NormalizeExtents(rem), cs
}

// fold builds the successor item carrying it's remaining work on the
// (possibly re-placed) domain target. Returns nil when nothing remains.
func (it *faultItem) fold(target int, live []Domain) *faultItem {
	rem, cs := it.remaining()
	bytes := pfs.TotalBytes(rem)
	if bytes == 0 {
		return nil
	}
	buf := max(live[target].BufferBytes, 1)
	return &faultItem{
		Domain:   target,
		Base:     rem,
		Bytes:    bytes,
		Buf:      buf,
		Rounds:   int((bytes + buf - 1) / buf),
		Rot:      target,
		Contribs: cs,
	}
}

// recoveryMetaBytes is the extent-list payload each surviving
// contributor re-ships to the absorbing aggregator after a fold: one
// wire record per remaining extent, floored at one record so an empty
// hand-off still costs a message.
func (it *faultItem) recoveryMetaBytes() int64 {
	return max(int64(len(it.Base)), 1) * extentListEntryBytes
}

// faultShape is the per-rank round structure of a planned collective
// operation: the metadata scatter in closed form plus one work item per
// non-empty domain carrying its per-rank contributor list — what
// recovery folds and the hot branch and the observer walk. It is
// BuildShape's counterpart for faulted, adaptive and observed runs.
type faultShape struct {
	meta        []sim.Exchange
	items       []*faultItem
	totalRounds int // the initial items' round counts, for the divergence guard
}

// buildFaultShape derives plan's per-rank round structure for the
// given requests (ctx already validated), walking each rank's request
// list once. A non-nil co counts the metadata scatter per rank.
func buildFaultShape(ctx *Context, plan *Plan, rs *RequestSet, co *costObs) *faultShape {
	fs := &faultShape{}
	fs.meta, _ = buildMetaExchanges(ctx, plan, rs, co)
	contribs := make([][]faultContrib, len(plan.Domains))
	if len(plan.Domains) > 0 {
		// The sparse overlap walk visits only (rank, domain) pairs that
		// actually overlap, near-linear in total extents; each domain's
		// list comes out in request order, the order the hot branch walks.
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
				contribs[bb.Bucket] = append(contribs[bb.Bucket],
					faultContrib{Rank: rank, Node: node, Bytes: bb.Bytes})
			}
		}
	}
	for i, d := range plan.Domains {
		rounds := d.Rounds()
		fs.totalRounds += rounds
		if rounds == 0 {
			continue
		}
		fs.items = append(fs.items, &faultItem{
			Domain:   i,
			Base:     d.Extents,
			Bytes:    d.Bytes,
			Buf:      d.BufferBytes,
			Rounds:   rounds,
			Rot:      i,
			Contribs: contribs[i],
		})
	}
	return fs
}
