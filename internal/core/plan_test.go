package core

import (
	"testing"

	"mcio/internal/collio"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
)

// fig4Context builds the scenario of the paper's Figure 4: 9 processes on
// 3 compute nodes with a serial (linearized) data distribution.
func fig4Context(t *testing.T, params collio.Params, avail []int64) *collio.Context {
	t.Helper()
	topo, err := mpi.BlockTopology(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.Testbed640()
	mc.Nodes = 3
	if avail == nil {
		avail = []int64{mc.MemPerNode, mc.MemPerNode, mc.MemPerNode}
	}
	return &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   avail,
		FS:      pfs.DefaultConfig(4),
		Params:  params,
	}
}

// serialRequests gives rank r the contiguous range [r*size, (r+1)*size).
func serialRequests(n int, size int64) []collio.RankRequest {
	reqs := make([]collio.RankRequest, n)
	for r := 0; r < n; r++ {
		reqs[r] = collio.RankRequest{
			Rank:    r,
			Extents: []pfs.Extent{{Offset: int64(r) * size, Length: size}},
		}
	}
	return reqs
}

func TestDivideGroupsFig4(t *testing.T) {
	// 9 ranks x 300 bytes serial. MsgGroup = 800: the tentative boundary
	// after 800 bytes falls inside node 0's third rank (bytes 600..900),
	// so the group extends to that node's data end (900) — node-aligned
	// groups, exactly Figure 4's rule.
	params := collio.DefaultParams(100)
	params.MsgGroup = 800
	params.MsgInd = 300
	ctx := fig4Context(t, params, nil)
	reqs := serialRequests(9, 300)
	groups := DivideGroups(ctx, reqs)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3: %+v", len(groups), groups)
	}
	for i, g := range groups {
		want := pfs.Extent{Offset: int64(i) * 900, Length: 900}
		if g.Region != want {
			t.Errorf("group %d region = %v, want %v", i, g.Region, want)
		}
		wantRanks := []int{3 * i, 3*i + 1, 3*i + 2}
		if len(g.Ranks) != 3 {
			t.Fatalf("group %d ranks = %v", i, g.Ranks)
		}
		for j, r := range wantRanks {
			if g.Ranks[j] != r {
				t.Errorf("group %d ranks = %v, want %v", i, g.Ranks, wantRanks)
			}
		}
	}
}

func TestDivideGroupsInterleavedFallsBackToOffsets(t *testing.T) {
	// Interleaved pattern: every node's data spans the whole file, so the
	// Fig 4 extension would swallow everything; the guard caps it and
	// boundaries fall back to MsgGroup-sized offset windows.
	params := collio.DefaultParams(100)
	params.MsgGroup = 900
	ctx := fig4Context(t, params, nil)
	var reqs []collio.RankRequest
	const unit = 100
	for r := 0; r < 9; r++ {
		var exts []pfs.Extent
		for s := 0; s < 3; s++ { // 3 segments, stride 9*unit
			exts = append(exts, pfs.Extent{Offset: int64(s*9+r) * unit, Length: unit})
		}
		reqs = append(reqs, collio.RankRequest{Rank: r, Extents: exts})
	}
	groups := DivideGroups(ctx, reqs)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	for i, g := range groups {
		if g.Region.Length != 900 {
			t.Errorf("group %d region = %v, want 900-byte window", i, g.Region)
		}
		if len(g.Ranks) != 9 {
			t.Errorf("group %d should contain all ranks, got %v", i, g.Ranks)
		}
	}
}

func TestDivideGroupsEmpty(t *testing.T) {
	ctx := fig4Context(t, collio.DefaultParams(100), nil)
	if g := DivideGroups(ctx, nil); g != nil {
		t.Fatalf("groups of nothing = %v", g)
	}
	if g := DivideGroups(ctx, []collio.RankRequest{{Rank: 0}}); g != nil {
		t.Fatalf("groups of empty request = %v", g)
	}
}

func TestPlanValidAndCovers(t *testing.T) {
	params := collio.DefaultParams(100)
	params.MsgGroup = 800
	params.MsgInd = 300
	params.MemMin = 50
	ctx := fig4Context(t, params, nil)
	reqs := serialRequests(9, 300)
	plan, err := New().Plan(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(reqs); err != nil {
		t.Fatal(err)
	}
	if plan.Groups != 3 {
		t.Fatalf("groups = %d", plan.Groups)
	}
	if plan.Strategy != "memory-conscious" {
		t.Fatalf("strategy = %q", plan.Strategy)
	}
}

func TestPlanPicksMaxAvailHost(t *testing.T) {
	params := collio.DefaultParams(1000)
	params.MsgGroup = 1 << 30 // one group
	params.MsgInd = 1 << 30   // one domain
	params.MemMin = 100
	params.Nah = 4
	avail := []int64{500, 20000, 700} // node 1 has the most memory
	ctx := fig4Context(t, params, avail)
	reqs := serialRequests(9, 300)
	plan, err := New().Plan(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Domains) != 1 {
		t.Fatalf("domains = %d, want 1", len(plan.Domains))
	}
	d := plan.Domains[0]
	if d.AggNode != 1 {
		t.Fatalf("aggregator on node %d, want the max-available node 1", d.AggNode)
	}
	if d.PagedSeverity != 0 {
		t.Fatal("fitting aggregator must not page")
	}
	if d.BufferBytes != params.CollBufSize {
		t.Fatalf("buffer = %d, want requested %d", d.BufferBytes, params.CollBufSize)
	}
	// The chosen rank lives on the chosen node and is data-local.
	if ctx.Topo.NodeOf(d.Aggregator) != 1 {
		t.Fatal("aggregator rank not on its host")
	}
}

func TestPlanAdaptsBufferToAvailability(t *testing.T) {
	params := collio.DefaultParams(10000)
	params.MsgGroup = 1 << 30
	params.MsgInd = 1 << 30
	params.MemMin = 100
	avail := []int64{600, 500, 400}
	ctx := fig4Context(t, params, avail)
	plan, err := New().Plan(ctx, serialRequests(9, 300))
	if err != nil {
		t.Fatal(err)
	}
	d := plan.Domains[0]
	if d.BufferBytes != 600 {
		t.Fatalf("buffer = %d, want the host's 600 available bytes", d.BufferBytes)
	}
	if d.PagedSeverity != 0 {
		t.Fatal("adapted buffer must not page")
	}
}

func TestPlanRespectsNah(t *testing.T) {
	params := collio.DefaultParams(100)
	params.MsgGroup = 1 << 30
	params.MsgInd = 300 // 2700 bytes -> at least 8 domains after bisection
	params.MemMin = 10
	params.Nah = 2
	ctx := fig4Context(t, params, nil)
	plan, err := New().Plan(ctx, serialRequests(9, 300))
	if err != nil {
		t.Fatal(err)
	}
	perHost := map[int]int{}
	for _, d := range plan.Domains {
		perHost[d.AggNode]++
	}
	for node, n := range perHost {
		if n > params.Nah {
			t.Fatalf("node %d hosts %d aggregators, N_ah = %d", node, n, params.Nah)
		}
	}
	if len(plan.Domains) < 2 {
		t.Fatalf("expected multiple domains, got %d", len(plan.Domains))
	}
}

func TestPlanRemergesWhenMemoryShort(t *testing.T) {
	// Node 1's hosts are memory-poor: domains whose only related host is
	// node 1 must be merged into neighbours rather than placed there.
	params := collio.DefaultParams(100)
	params.MsgGroup = 1 << 30
	params.MsgInd = 300
	params.MemMin = 150
	avail := []int64{10000, 50, 10000} // node 1 below MemMin
	ctx := fig4Context(t, params, avail)
	plan, err := New().Plan(ctx, serialRequests(9, 300))
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(serialRequests(9, 300)); err != nil {
		t.Fatal(err)
	}
	for _, d := range plan.Domains {
		if d.AggNode == 1 {
			t.Fatalf("domain placed on memory-poor node 1: %+v", d)
		}
	}
}

func TestPlanFallbackAdaptsBuffer(t *testing.T) {
	// No node clears MemMin: the strategy must still produce a valid
	// plan, shrinking the buffer to what the best host has rather than
	// over-committing.
	params := collio.DefaultParams(1000)
	params.MsgGroup = 1 << 30
	params.MsgInd = 1 << 30
	params.MemMin = 1 << 40
	avail := []int64{100, 200, 300}
	ctx := fig4Context(t, params, avail)
	reqs := serialRequests(9, 300)
	plan, err := New().Plan(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(reqs); err != nil {
		t.Fatal(err)
	}
	if len(plan.Domains) != 1 {
		t.Fatalf("domains = %d", len(plan.Domains))
	}
	d := plan.Domains[0]
	if d.AggNode != 2 {
		t.Fatalf("fallback should still pick the best host, got node %d", d.AggNode)
	}
	if d.BufferBytes != 300 {
		t.Fatalf("fallback buffer = %d, want the host's 300 available bytes", d.BufferBytes)
	}
	if d.PagedSeverity != 0 {
		t.Fatalf("adapted fallback must not page, severity = %v", d.PagedSeverity)
	}
}

func TestPlanFallbackPagesOnlyWhenTrulyStarved(t *testing.T) {
	// Hosts so starved that even the bounded minimum buffer (an eighth of
	// the desired size) over-commits: the plan records the residual
	// paging severity.
	params := collio.DefaultParams(1000)
	params.MsgGroup = 1 << 30
	params.MsgInd = 1 << 30
	params.MemMin = 1 << 40
	avail := []int64{1, 2, 3}
	ctx := fig4Context(t, params, avail)
	reqs := serialRequests(9, 300)
	plan, err := New().Plan(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	d := plan.Domains[0]
	if d.BufferBytes != 125 { // CollBufSize/8
		t.Fatalf("starved fallback buffer = %d, want bounded minimum 125", d.BufferBytes)
	}
	if d.PagedSeverity <= 0 {
		t.Fatal("starved fallback must record paging severity")
	}
}

func TestPlanEmptyRequests(t *testing.T) {
	ctx := fig4Context(t, collio.DefaultParams(100), nil)
	plan, err := New().Plan(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Domains) != 0 || plan.Groups != 0 {
		t.Fatalf("plan of nothing: %+v", plan)
	}
	if err := plan.Validate(nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlanRejectsInvalidRank(t *testing.T) {
	ctx := fig4Context(t, collio.DefaultParams(100), nil)
	_, err := New().Plan(ctx, []collio.RankRequest{{Rank: 99, Extents: []pfs.Extent{{Offset: 0, Length: 1}}}})
	if err == nil {
		t.Fatal("invalid rank accepted")
	}
}

func TestPlanDeterministic(t *testing.T) {
	params := collio.DefaultParams(100)
	params.MsgGroup = 700
	params.MsgInd = 250
	params.MemMin = 50
	avail := []int64{3000, 100, 2000}
	reqs := serialRequests(9, 300)
	p1, err := New().Plan(fig4Context(t, params, avail), reqs)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := New().Plan(fig4Context(t, params, avail), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(p1.Domains) != len(p2.Domains) {
		t.Fatalf("nondeterministic domain count: %d vs %d", len(p1.Domains), len(p2.Domains))
	}
	for i := range p1.Domains {
		a, b := p1.Domains[i], p2.Domains[i]
		if a.Aggregator != b.Aggregator || a.AggNode != b.AggNode ||
			a.Bytes != b.Bytes || a.BufferBytes != b.BufferBytes {
			t.Fatalf("domain %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestPagedBuffer pins the buffer rule of a placement that no host's
// memory satisfies, shared by planning's fallback and failover's
// relocation: cap at the domain's bytes, shrink toward the host's free
// memory no lower than an eighth of the collective buffer, and page
// the rest.
func TestPagedBuffer(t *testing.T) {
	const coll = 1 << 20
	for _, c := range []struct {
		name               string
		collBuf, bytes, av int64
		wantBuf            int64
		wantSev            float64
	}{
		{"fits", coll, 4 * coll, 2 * coll, coll, 0},
		{"capped at the domain", coll, 1000, 2 * coll, 1000, 0},
		{"shrinks to free memory", coll, 4 * coll, coll / 2, coll / 2, 0},
		{"floor of an eighth pages", coll, 4 * coll, coll / 16, coll / 8, 0.5},
		{"nothing free pages all", coll, 4 * coll, 0, coll / 8, 1},
		{"empty domain, nothing free", coll, 0, 0, 1, 1},
		{"tiny buffer floors at one byte", 4, 100, 0, 1, 1},
	} {
		buf, sev := pagedBuffer(c.collBuf, c.bytes, c.av)
		if buf != c.wantBuf || sev != c.wantSev {
			t.Errorf("%s: pagedBuffer(%d, %d, %d) = %d, %g; want %d, %g",
				c.name, c.collBuf, c.bytes, c.av, buf, sev, c.wantBuf, c.wantSev)
		}
	}
}
