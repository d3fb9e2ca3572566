package collio

import (
	"cmp"
	"slices"
	"sync/atomic"

	"mcio/internal/mpi"
	"mcio/internal/pfs"
)

// faultContrib is one request's contribution to a work item: the
// per-rank granularity the hot branch walks and recovery folds. Req is
// the request's index in the run's RequestSet.
type faultContrib struct {
	Req   int
	Node  int
	Bytes int64
}

// faultItem is a unit of remaining shuffle+I/O work in the pricing
// loop. One item starts per non-empty domain of the run's Shape; a
// recovery folds an item's remaining work into a fresh item bound to
// the absorbing (or re-placed) domain. Items reference live domains by
// index for placement, so later reassignments of the same domain move
// them too.
//
// Healthy items price from per-node aggregates (aggs). The per-rank
// contributor list exists only where it is read: the hot branch walks
// it, and recovery folds it (remaining) and re-ships its extent lists.
// An item built from a Shape derives it from its aggregates on the
// first of those reads (rankContribs); a folded item is built from its
// parent's list and derives its aggregates from it instead (nodeAggs).
type faultItem struct {
	Domain int // index into the live domain set; placement is read per round
	Base   []pfs.Extent
	Bytes  int64
	Buf    int64
	Rounds int
	Done   int
	Rot    int // slice stagger rotation (domain index at creation)

	contribs []faultContrib // per-rank list in request order; see rankContribs
	src      *rankSource    // non-nil until contribs is derived from aggs
	aggs     []NodeContrib  // per-node aggregates, from the Shape or built from contribs
	cur      []shareCursor  // this run's position in each of aggs
}

// rankSource is what an item derives its per-rank list from: the run's
// requests and their ranks' placement on nodes.
type rankSource struct {
	rs   *RequestSet
	topo *mpi.Topology
}

// derivedLists counts the per-rank lists items have derived.
var derivedLists atomic.Int64

// regrownRuns counts the priced runs whose round buffers outgrew the
// size they were given before the first round.
var regrownRuns atomic.Int64

// Active reports whether the item still has rounds to run.
func (it *faultItem) Active() bool { return it.Bytes > 0 && it.Done < it.Rounds }

// rankContribs returns the item's per-rank contributor list, in request
// order: the order the hot branch queries the injector and sums extra
// latency in. An item built from a Shape derives it on first use.
func (it *faultItem) rankContribs() []faultContrib {
	if it.src != nil {
		it.contribs = it.src.derive(it.Base, it.aggs)
		it.src = nil
	}
	return it.contribs
}

// derive lists, in request order, every request of a rank on the nodes
// of aggs that overlaps base, with the bytes it shares with base: the
// per-rank form of aggs, one entry per counted contribution. A rank
// with two requests contributes once per request. The list is sized
// exactly from the aggregates' counts, and nothing else is allocated.
func (src *rankSource) derive(base []pfs.Extent, aggs []NodeContrib) []faultContrib {
	n := 0
	for i := range aggs {
		n += aggs[i].Count
	}
	cs := make([]faultContrib, 0, n)
	rs := src.rs
	for i := range aggs {
		node := aggs[i].Node
		for _, r := range src.topo.RanksOnNode(node) {
			lo, hi := rs.rankRequests(r)
			for k := lo; k < hi; k++ {
				q := rs.byRankAt(k)
				if b := overlapBytes(rs.List(q), base); b > 0 {
					cs = append(cs, faultContrib{Req: q, Node: node, Bytes: b})
				}
			}
		}
	}
	// Nodes ascending, then ranks ascending, is request order already
	// for block placement with requests in rank order.
	byRequest := func(a, b faultContrib) int { return cmp.Compare(a.Req, b.Req) }
	if !slices.IsSortedFunc(cs, byRequest) {
		slices.SortFunc(cs, byRequest)
	}
	derivedLists.Add(1)
	return cs
}

// spanBound bounds the stripe spans one round slice of the item maps
// to (pfs.Mapper.Map): at most Buf bytes of Base. An extent of L bytes
// touches at most L/StripeUnit+2 stripe units. A single extent maps to
// at most four spans when it touches no more units than there are
// targets, and to at most five beyond that. Several extents map to one
// span per target they touch.
func (it *faultItem) spanBound(c pfs.Config) int {
	n, units := int64(c.Targets), it.Buf/c.StripeUnit+2*int64(len(it.Base))
	if len(it.Base) == 1 {
		spans := int64(5)
		if units <= n {
			spans = 4
		}
		n = min(n, spans)
	}
	return int(min(n, units))
}

// nodeAggs returns the item's per-node contribution aggregates and the
// run's cursors into them; a folded item builds both from its per-rank
// list on first use.
// Each NodeContrib reconstructs the node's exact per-round share of the
// per-rank even split (NodeContrib.share), so aggregate pricing is
// bit-identical to walking the ranks.
func (it *faultItem) nodeAggs() ([]NodeContrib, []shareCursor) {
	if it.aggs == nil {
		rounds := int64(max(it.Rounds, 1))
		var cs []NodeContrib
		for _, c := range it.contribs {
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
		return it.Base, it.rankContribs()
	}
	var rem []pfs.Extent
	for j := it.Done; j < it.Rounds; j++ {
		idx := (j + it.Rot) % it.Rounds
		rem = append(rem, pfs.SliceData(it.Base, int64(idx)*it.Buf, it.Buf)...)
	}
	var cs []faultContrib
	for _, c := range it.rankContribs() {
		moved := int64(it.Done)*(c.Bytes/int64(it.Rounds)) + min(int64(it.Done), c.Bytes%int64(it.Rounds))
		if left := c.Bytes - moved; left > 0 {
			cs = append(cs, faultContrib{Req: c.Req, Node: c.Node, Bytes: left})
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
		contribs: cs,
	}
}

// recoveryMetaBytes is the extent-list payload each surviving
// contributor re-ships to the absorbing aggregator after a fold: one
// wire record per remaining extent, floored at one record so an empty
// hand-off still costs a message.
func (it *faultItem) recoveryMetaBytes() int64 {
	return max(int64(len(it.Base)), 1) * extentListEntryBytes
}
