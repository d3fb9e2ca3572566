package layoutaware

import (
	"testing"

	"mcio/internal/collio"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
)

func testContext(t *testing.T, ranks, perNode int, stripe int64) *collio.Context {
	t.Helper()
	topo, err := mpi.BlockTopology(ranks, perNode)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	avail := make([]int64, topo.Nodes())
	for i := range avail {
		avail[i] = mc.MemPerNode
	}
	fsCfg := pfs.DefaultConfig(4)
	fsCfg.StripeUnit = stripe
	return &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   avail,
		FS:      fsCfg,
		Params:  collio.DefaultParams(1 << 10),
	}
}

func contiguousRequests(n int, size int64) []collio.RankRequest {
	reqs := make([]collio.RankRequest, n)
	for r := 0; r < n; r++ {
		reqs[r] = collio.RankRequest{
			Rank:    r,
			Extents: []pfs.Extent{{Offset: int64(r) * size, Length: size}},
		}
	}
	return reqs
}

func TestPlanAlignsDomainsToStripes(t *testing.T) {
	const stripe = 256
	ctx := testContext(t, 12, 4, stripe) // 3 nodes, 3 aggregators
	reqs := contiguousRequests(12, 1000) // 12000 bytes: not stripe-friendly
	plan, err := New().Plan(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(reqs); err != nil {
		t.Fatal(err)
	}
	// Every interior domain boundary must sit on a stripe boundary.
	for i, d := range plan.Domains[:len(plan.Domains)-1] {
		end := d.Extents[len(d.Extents)-1].End()
		if end%stripe != 0 {
			t.Errorf("domain %d ends at %d, not stripe-aligned", i, end)
		}
	}
	// No stripe unit is shared by two domains.
	owner := map[int64]int{}
	for i, d := range plan.Domains {
		for _, e := range d.Extents {
			for s := e.Offset / stripe; s <= (e.End()-1)/stripe; s++ {
				if prev, ok := owner[s]; ok && prev != i {
					t.Fatalf("stripe %d owned by domains %d and %d", s, prev, i)
				}
				owner[s] = i
			}
		}
	}
}

func TestPlanCoversEverything(t *testing.T) {
	ctx := testContext(t, 6, 2, 64)
	reqs := []collio.RankRequest{
		{Rank: 0, Extents: []pfs.Extent{{Offset: 13, Length: 700}}},
		{Rank: 4, Extents: []pfs.Extent{{Offset: 1000, Length: 333}}},
	}
	plan, err := New().Plan(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(reqs); err != nil {
		t.Fatal(err)
	}
}

func TestPlanEmpty(t *testing.T) {
	ctx := testContext(t, 4, 2, 64)
	plan, err := New().Plan(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Domains) != 0 {
		t.Fatal("empty plan expected")
	}
}

func TestPlanInvalidRank(t *testing.T) {
	ctx := testContext(t, 4, 2, 64)
	_, err := New().Plan(ctx, []collio.RankRequest{{Rank: 9, Extents: []pfs.Extent{{Offset: 0, Length: 1}}}})
	if err == nil {
		t.Fatal("invalid rank accepted")
	}
}

func TestName(t *testing.T) {
	if New().Name() != "layout-aware" {
		t.Fatal("name")
	}
}

func TestFewerRequestsThanUnaligned(t *testing.T) {
	// The point of layout awareness: aligned domains decompose into fewer
	// per-target requests than oblivious even splits when the split point
	// lands mid-stripe.
	const stripe = 256
	ctx := testContext(t, 12, 4, stripe)
	reqs := contiguousRequests(12, 1000)
	plan, err := New().Plan(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	var alignedReqs int
	for _, d := range plan.Domains {
		for _, acc := range ctx.FS.NewMapper().Map(d.Extents) {
			alignedReqs += acc.Count * acc.Requests
		}
	}
	if alignedReqs == 0 {
		t.Fatal("no requests mapped")
	}
	// 12000 bytes over stripes of 256 = 47 stripe units; one owner each
	// means per-domain accesses merge into one run per target.
	if alignedReqs > 4*len(plan.Domains) {
		t.Fatalf("aligned plan still fragments: %d requests", alignedReqs)
	}
}
