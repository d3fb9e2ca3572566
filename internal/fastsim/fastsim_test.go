package fastsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/faults"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/twophase"
)

// testContext builds a small self-consistent pricing context.
func testContext(t *testing.T, ranks, perNode, targets int, avail int64) *collio.Context {
	t.Helper()
	topo, err := mpi.BlockTopology(ranks, (ranks+perNode-1)/perNode)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	av := make([]int64, mc.Nodes)
	for i := range av {
		av[i] = avail
	}
	return &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   av,
		FS:      pfs.DefaultConfig(targets),
		Params:  collio.DefaultParams(avail),
	}
}

// perRank prices like collio.CostWithFaults with every node walked per
// rank: the byte-level reference the bundled loop behind this package's
// forwarders must match bit for bit. An Adaptive in the env marks every
// node hot, and one with no detector, no breakers, no proactive
// failover and hedging never armed responds exactly as the static
// retry-only policy does. A nil injector prices a clean run.
func perRank(ctx *collio.Context, plan *collio.Plan, reqs []collio.RankRequest, op collio.Op,
	opt sim.Options, inj *faults.Injector, handler collio.FaultHandler) (*collio.FaultResult, error) {
	rs := collio.NewRequestSet(reqs)
	sh, err := collio.BuildShapeSet(ctx, plan, rs)
	if err != nil {
		return nil, err
	}
	return collio.CostShape(ctx, plan, sh, rs, op, opt,
		collio.FaultEnv{Injector: inj, Handler: handler, Adaptive: &collio.Adaptive{HedgeMinSamples: math.MaxInt}})
}

// priceBoth prices the plan through Sim.Cost (bundled per node) and on
// the per-rank walk, and fails the test on any divergence in the full
// CostResult.
func priceBoth(t *testing.T, ctx *collio.Context, s collio.Strategy, reqs []collio.RankRequest, opt sim.Options) {
	t.Helper()
	rs := collio.NewRequestSet(reqs)
	plan, err := s.PlanSet(ctx, rs)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.ValidateSet(rs); err != nil {
		t.Fatal(err)
	}
	fs, err := New(ctx, plan, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []collio.Op{collio.Write, collio.Read} {
		want, err := perRank(ctx, plan, reqs, op, opt, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fs.Cost(op, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*got, want.CostResult) {
			t.Fatalf("%s %s: bundled and per-rank pricing diverge\nbundled:  %+v\nper-rank: %+v",
				s.Name(), op, got, want.CostResult)
		}
	}
}

// TestFastMatchesByteContiguous cross-checks bundled against per-rank
// pricing on a dense contiguous workload under both strategies and both overlap modes.
func TestFastMatchesByteContiguous(t *testing.T) {
	ctx := testContext(t, 12, 4, 4, 16<<10)
	reqs := make([]collio.RankRequest, 12)
	const chunk = 3 << 10
	for r := range reqs {
		reqs[r] = collio.RankRequest{Rank: r, Extents: []pfs.Extent{
			{Offset: int64(r) * chunk, Length: chunk},
		}}
	}
	for _, overlap := range []bool{false, true} {
		opt := sim.DefaultOptions()
		opt.Overlap = overlap
		opt.Trace = true
		priceBoth(t, ctx, twophase.New(), reqs, opt)
		priceBoth(t, ctx, core.New(), reqs, opt)
	}
}

// TestFastMatchesByteInterleaved cross-checks bundled against per-rank
// pricing on a strided pattern where every round carries uneven
// remainders and multi-target stripe maps.
func TestFastMatchesByteInterleaved(t *testing.T) {
	ctx := testContext(t, 16, 4, 8, 8<<10)
	reqs := make([]collio.RankRequest, 16)
	const rec = 700
	for r := range reqs {
		for b := 0; b < 6; b++ {
			reqs[r].Extents = append(reqs[r].Extents, pfs.Extent{
				Offset: int64(b*16+r) * rec,
				Length: rec,
			})
		}
		reqs[r].Rank = r
	}
	opt := sim.DefaultOptions()
	opt.Trace = true
	priceBoth(t, ctx, twophase.New(), reqs, opt)
	priceBoth(t, ctx, core.New(), reqs, opt)
}

// TestFastMatchesByteRandom is the property test: random small seeded
// topologies and workloads (sparse, overlapping, some ranks idle) must
// price identically bundled and per rank, under both strategies and
// directions.
func TestFastMatchesByteRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		ranks := 2 + rng.Intn(20)
		perNode := 1 + rng.Intn(4)
		targets := 1 + rng.Intn(8)
		avail := int64(1+rng.Intn(32)) << 9
		ctx := testContext(t, ranks, perNode, targets, avail)
		reqs := make([]collio.RankRequest, ranks)
		for r := 0; r < ranks; r++ {
			reqs[r].Rank = r
			for i, n := 0, rng.Intn(5); i < n; i++ {
				reqs[r].Extents = append(reqs[r].Extents, pfs.Extent{
					Offset: int64(rng.Intn(24 << 10)),
					Length: int64(rng.Intn(3 << 10)),
				})
			}
		}
		opt := sim.DefaultOptions()
		opt.Overlap = trial%2 == 0
		opt.Trace = true
		priceBoth(t, ctx, twophase.New(), reqs, opt)
		priceBoth(t, ctx, core.New(), reqs, opt)
	}
}
