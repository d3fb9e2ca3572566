package collio

import (
	"reflect"
	"slices"
	"testing"

	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/stats"
)

// RoundShare is the cursor-free oracle for NodeContrib.share: round k's
// exact share counted from the remainder runs.
func (c *NodeContrib) RoundShare(k int) (bytes int64, msgs int) {
	var extra, zero int
	for _, r := range c.rems {
		if r.rem > int64(k) {
			extra += int(r.n)
			zero += int(r.zero)
		}
	}
	return c.floorSum + int64(extra), c.posFloor + zero
}

// perRankShare sums evenShare over node's contributors to it: the share
// the hot branch would send rank by rank, and the positive-byte
// messages among them.
func perRankShare(it *faultItem, node, k int) (bytes int64, msgs int) {
	for _, c := range it.rankContribs() {
		if c.Node != node {
			continue
		}
		if b := evenShare(c.Bytes, k, it.Rounds); b > 0 {
			bytes += b
			msgs++
		}
	}
	return bytes, msgs
}

// randomItem returns a work item whose contributors sit on a few nodes
// in interleaved order, some contributing less than one byte per round
// (zero floor share) and some exactly divisible (no remainder).
func randomItem(r *stats.RNG) *faultItem {
	nodes := 1 + r.Intn(5)
	var cs []faultContrib
	var total int64
	for rank, n := 0, 1+r.Intn(40); rank < n; rank++ {
		var b int64
		switch r.Intn(4) {
		case 0:
			b = 1 + r.Int63n(8) // fewer bytes than rounds, mostly
		case 1:
			b = 64 * (1 + r.Int63n(8)) // often divisible
		default:
			b = 1 + r.Int63n(5000)
		}
		cs = append(cs, faultContrib{Rank: rank, Node: r.Intn(nodes), Bytes: b})
		total += b
	}
	buf := 1 + r.Int63n(total)
	return &faultItem{
		Base:     []pfs.Extent{{Offset: 0, Length: total}},
		Bytes:    total,
		Buf:      buf,
		Rounds:   int((total + buf - 1) / buf),
		contribs: cs,
	}
}

// checkShares compares, at the item's current step, every node
// aggregate's cursor share with RoundShare and the per-rank sum.
func checkShares(t *testing.T, trial int, it *faultItem) {
	t.Helper()
	aggs, cur := it.nodeAggs()
	for i := range aggs {
		nc := &aggs[i]
		if i > 0 && aggs[i-1].Node >= nc.Node {
			t.Fatalf("trial %d: aggregates not ascending by node: %d then %d", trial, aggs[i-1].Node, nc.Node)
		}
		b, m := nc.share(&cur[i], it.Done)
		ob, om := nc.RoundShare(it.Done)
		rb, rm := perRankShare(it, nc.Node, it.Done)
		if b != ob || m != om || b != rb || m != rm {
			t.Fatalf("trial %d node %d step %d/%d: share = (%d, %d), RoundShare = (%d, %d), per rank = (%d, %d)",
				trial, nc.Node, it.Done, it.Rounds, b, m, ob, om, rb, rm)
		}
	}
}

// The per-run cursor reads every round's exact share however the run
// walks the rounds: forward with Done, back one step on a replay, and
// from scratch on the fresh item a recovery folds the rest into.
func TestShareCursorMatchesRoundShare(t *testing.T) {
	r := stats.NewRNG(11)
	for trial := 0; trial < 400; trial++ {
		it := randomItem(r)
		for refolds := 0; it != nil && it.Active(); {
			checkShares(t, trial, it)
			switch x := r.Intn(10); {
			case x == 0 && it.Done > 0: // replay the lost round
				it.Done--
			case x == 1 && refolds < 3: // recovery: fold the rest into a fresh item
				refolds++
				live := []Domain{{BufferBytes: 1 + r.Int63n(it.Bytes)}}
				it = it.fold(0, live)
			default:
				it.Done++
			}
		}
	}
}

// Walking a shape's items moves only the run's cursors: the shape, which
// both directions of CostShape and parallel cells share, is unchanged.
// Each run's item derives the per-rank list the shape was built from.
func TestShareCursorsLeaveShapeUnchanged(t *testing.T) {
	r := stats.NewRNG(5)
	src := randomItem(r)
	aggs, _ := src.nodeAggs()
	sh := &Shape{Contribs: [][]NodeContrib{aggs}}
	before := cloneShape(sh)
	plan := &Plan{Domains: []Domain{{Extents: src.Base, Bytes: src.Bytes, BufferBytes: src.Buf}}}
	// Rank c.Rank requests the next c.Bytes bytes of the item's one
	// extent on node c.Node, so its overlap with the item is c.Bytes.
	nodeOf := make([]int, len(src.contribs))
	reqs := make([]RankRequest, len(src.contribs))
	var off int64
	for i, c := range src.contribs {
		nodeOf[i] = c.Node
		reqs[i] = RankRequest{Rank: c.Rank, Extents: []pfs.Extent{{Offset: off, Length: c.Bytes}}}
		off += c.Bytes
	}
	topo, err := mpi.ExplicitTopology(nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	ranks := &rankSource{rs: NewRequestSet(reqs), topo: &topo}
	for run := 0; run < 2; run++ {
		items, _ := sh.workItems(plan, ranks)
		it := items[0]
		if got := it.rankContribs(); !reflect.DeepEqual(got, src.contribs) {
			t.Fatalf("run %d: derived per-rank list %v, want %v", run, got, src.contribs)
		}
		for ; it.Active(); it.Done++ {
			checkShares(t, run, it)
		}
	}
	if !reflect.DeepEqual(sh, before) {
		t.Fatal("pricing from a shape modified it")
	}
}

// cloneShape deep-copies sh's domain contributions.
func cloneShape(sh *Shape) *Shape {
	c := &Shape{Contribs: make([][]NodeContrib, len(sh.Contribs))}
	for i := range sh.Contribs {
		cs := slices.Clone(sh.Contribs[i])
		for k := range cs {
			cs[k].rems = slices.Clone(cs[k].rems)
			cs[k].steps = slices.Clone(cs[k].steps)
		}
		c.Contribs[i] = cs
	}
	return c
}
