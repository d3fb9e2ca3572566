package collio_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/faults"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/obs"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/twophase"
)

// byteDraws turns fuzz input into bounded draws; an exhausted input
// draws zeros.
type byteDraws []byte

// next returns a draw in [0, n).
func (b *byteDraws) next(n int) int {
	if len(*b) == 0 || n <= 1 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// contribCase decodes a derivation case from data: ranks on nodes in
// block or interleaved placement, zero to two requests per rank (so
// idle ranks and ranks with two requests) of possibly overlapping and
// non-canonical extents, in rank or shuffled order, and a plan whose
// domains cut the requests' union at random offsets.
func contribCase(t testing.TB, data []byte) (*collio.Context, *collio.Plan, *collio.RequestSet) {
	d := byteDraws(data)
	nodes, ranks := 1+d.next(5), 1+d.next(24)
	nodeOf := make([]int, ranks)
	interleaved := d.next(2) == 1
	for r := range nodeOf {
		nodeOf[r] = r * nodes / ranks
		if interleaved {
			nodeOf[r] = d.next(nodes)
		}
	}
	topo, err := mpi.ExplicitTopology(nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	ctx := &collio.Context{Topo: topo, Machine: mc, Avail: make([]int64, mc.Nodes),
		FS: pfs.DefaultConfig(4), Params: collio.DefaultParams(1 << 10)}

	var reqs []collio.RankRequest
	for r := 0; r < ranks; r++ {
		for k := d.next(3); k > 0; k-- {
			req := collio.RankRequest{Rank: r}
			for m := d.next(4); m > 0; m-- {
				req.Extents = append(req.Extents, pfs.Extent{Offset: int64(d.next(64)) * 16, Length: int64(d.next(48))})
			}
			reqs = append(reqs, req)
		}
	}
	if d.next(2) == 1 {
		for i := len(reqs) - 1; i > 0; i-- {
			j := d.next(i + 1)
			reqs[i], reqs[j] = reqs[j], reqs[i]
		}
	}
	rs := collio.NewRequestSet(reqs)

	all := make([]int, ranks)
	for r := range all {
		all[r] = r
	}
	plan := &collio.Plan{Strategy: "cut", Groups: 1, GroupRanks: [][]int{all}}
	union := rs.Union()
	if len(union) == 0 {
		return ctx, plan, rs
	}
	span := pfs.Span(union)
	cuts := []int64{span.Offset, span.End()}
	for k := d.next(5); k > 0; k-- {
		cuts = append(cuts, span.Offset+int64(d.next(int(span.Length))))
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	for i := 0; i+1 < len(cuts); i++ {
		exts := pfs.Clip(union, cuts[i], cuts[i+1])
		if len(exts) == 0 {
			continue
		}
		agg := d.next(ranks)
		plan.Domains = append(plan.Domains, collio.Domain{Extents: exts, Bytes: pfs.TotalBytes(exts),
			Aggregator: agg, AggNode: topo.NodeOf(agg), BufferBytes: int64(1 + d.next(200))})
	}
	return ctx, plan, rs
}

// checkDerived fails unless every domain's derived per-rank list equals
// the up-front walk's, entry for entry and in order.
func checkDerived(t *testing.T, name string, ctx *collio.Context, plan *collio.Plan, rs *collio.RequestSet) {
	t.Helper()
	want := collio.WalkContribs(ctx, plan, rs)
	got := collio.DerivedContribs(ctx, plan, rs)
	for i := range plan.Domains {
		if len(got[i]) != len(want[i]) || (len(want[i]) > 0 && !slices.Equal(got[i], want[i])) {
			t.Fatalf("%s: domain %d derived %v, the walk gives %v", name, i, got[i], want[i])
		}
	}
}

// TestLazyContribsMatchWalk pins the lazy derivation to the walk it
// replaced: on random placements and request orders, every work item's
// per-rank list, derived from its node aggregates, equals the walk's
// list for its domain in order — the order the hot branch queries the
// injector in. The cases must reach every shape the derivation
// handles: interleaved placement, shuffled requests, ranks with two
// requests and idle ranks.
func TestLazyContribsMatchWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var interleaved, shuffled, twice, idle int
	for trial := 0; trial < 400; trial++ {
		data := make([]byte, 160)
		rng.Read(data)
		ctx, plan, rs := contribCase(t, data)
		checkDerived(t, fmt.Sprintf("trial %d", trial), ctx, plan, rs)

		inOrder, perRank := true, map[int]int{}
		for i := range rs.Len() {
			inOrder = inOrder && (i == 0 || rs.Rank(i) > rs.Rank(i-1))
			perRank[rs.Rank(i)]++
		}
		if !inOrder {
			shuffled++
		}
		for r := 0; r < ctx.Topo.Size(); r++ {
			switch {
			case perRank[r] == 0:
				idle++
			case perRank[r] == 2:
				twice++
			}
			if r > 0 && ctx.Topo.NodeOf(r) < ctx.Topo.NodeOf(r-1) {
				interleaved++
			}
		}
	}
	if interleaved == 0 || shuffled == 0 || twice == 0 || idle == 0 {
		t.Fatalf("cases too narrow: interleaved %d, shuffled %d, two requests %d, idle %d",
			interleaved, shuffled, twice, idle)
	}
}

// FuzzLazyContribs checks the lazy derivation against the walk on
// arbitrary decoded cases.
func FuzzLazyContribs(f *testing.F) {
	f.Add([]byte{3, 9, 1, 0, 2, 1, 0, 2, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0, 4, 0, 2, 2, 10, 20, 2, 30, 5, 1, 2, 40, 40, 1, 7, 7, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ctx, plan, rs := contribCase(t, data)
		checkDerived(t, "fuzz case", ctx, plan, rs)
	})
}

// TestContribsDerivedOnlyWhenRead counts derivations: a faulted run
// whose schedule never makes a node hot and never folds an item prices
// from the node aggregates alone and derives no per-rank list, and so
// does an observed clean run, whose traffic the engine counts per node.
func TestContribsDerivedOnlyWhenRead(t *testing.T) {
	c := pricingCases(t, 0)[0]
	plan, err := twophase.New().PlanSet(c.ctx, c.rs)
	if err != nil {
		t.Fatal(err)
	}
	items := 0
	for _, d := range plan.Domains {
		if d.Rounds() > 0 {
			items++
		}
	}
	// A straggler slows its node down but sends no message differently:
	// no node turns hot and nothing fails over.
	sched := &faults.Plan{Events: []faults.Event{{Kind: faults.Straggler, Node: 1, Duration: 1, Severity: 2}}}
	before := collio.DerivedLists()
	res, err := costReqs(c.ctx, plan, c.reqs, collio.Write, sim.DefaultOptions(),
		collio.FaultEnv{Injector: faults.NewInjector(sched), Handler: twophase.NewStallRetry(c.ctx.Avail, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected["straggler"] == 0 {
		t.Fatalf("the straggler never fired: %v", res.Injected)
	}
	if n := collio.DerivedLists() - before; n != 0 {
		t.Fatalf("a run without hot nodes or folds derived %d per-rank lists, want 0", n)
	}

	octx := *c.ctx
	octx.Obs = obs.New()
	before = collio.DerivedLists()
	if _, err := collio.CostSet(&octx, plan, c.rs, collio.Write, sim.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if n := collio.DerivedLists() - before; n != 0 || items == 0 {
		t.Fatalf("an observed clean run of %d items derived %d per-rank lists, want 0", items, n)
	}
}
