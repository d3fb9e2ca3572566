package collio_test

import (
	"bytes"
	"testing"
	"testing/quick"

	mrand "math/rand"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/layoutaware"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/stats"
	"mcio/internal/twophase"
	"mcio/internal/workload"
)

// strategies under test: the baseline and the paper's contribution must
// both move bytes correctly under every access pattern.
func strategies() []collio.Strategy {
	return []collio.Strategy{twophase.New(), layoutaware.New(), core.New()}
}

func buildContext(t testing.TB, ranks, perNode int, params collio.Params, avail []int64) *collio.Context {
	topo, err := mpi.BlockTopology(ranks, perNode)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	if avail == nil {
		avail = make([]int64, topo.Nodes())
		for i := range avail {
			avail[i] = mc.MemPerNode
		}
	}
	fsCfg := pfs.DefaultConfig(4)
	fsCfg.StripeUnit = 64 // small stripes exercise striping in small tests
	return &collio.Context{Topo: topo, Machine: mc, Avail: avail, FS: fsCfg, Params: params}
}

// fillPattern gives each request's buffer a content derived from rank and
// position so misplaced bytes are detectable.
func fillPattern(rank int, buf []byte) {
	for i := range buf {
		buf[i] = byte((rank*131 + i*7 + 3) % 251)
	}
}

// freshBufs returns zeroed buffers as long as bufs, for a read.
func freshBufs(bufs [][]byte) [][]byte {
	out := make([][]byte, len(bufs))
	for i, b := range bufs {
		out[i] = make([]byte, len(b))
	}
	return out
}

// roundTrip plans, writes, reads back with fresh buffers, and compares —
// and additionally verifies the file contents against an oracle built from
// the declared extents.
func roundTrip(t *testing.T, ctx *collio.Context, s collio.Strategy, reqs []collio.RankRequest) {
	t.Helper()
	plan, err := s.Plan(ctx, reqs)
	if err != nil {
		t.Fatalf("%s: plan: %v", s.Name(), err)
	}
	if err := plan.Validate(reqs); err != nil {
		t.Fatalf("%s: invalid plan: %v", s.Name(), err)
	}

	fsys, err := pfs.NewFileSystem(ctx.FS)
	if err != nil {
		t.Fatal(err)
	}
	file := fsys.Open("roundtrip")

	// The executors take one request per rank, in rank order.
	byRank := make([]collio.RankRequest, ctx.Topo.Size())
	for r := range byRank {
		byRank[r].Rank = r
		for _, q := range reqs {
			if q.Rank == r {
				byRank[r] = q
			}
		}
	}
	rs := collio.NewRequestSet(byRank)
	writeBufs := make([][]byte, rs.Len())
	for r := range writeBufs {
		writeBufs[r] = make([]byte, pfs.TotalBytes(rs.List(r)))
		fillPattern(r, writeBufs[r])
	}
	if err := collio.Exec(ctx, plan, rs, writeBufs, file, collio.Write); err != nil {
		t.Fatalf("%s: write exec: %v", s.Name(), err)
	}

	// Oracle: apply every rank's extents to a flat buffer in rank order.
	var oracleSize int64
	for _, q := range byRank {
		for _, e := range pfs.NormalizeExtents(q.Extents) {
			oracleSize = max(oracleSize, e.End())
		}
	}
	oracle := make([]byte, oracleSize)
	for r, q := range byRank {
		var pos int64
		for _, e := range pfs.NormalizeExtents(q.Extents) {
			copy(oracle[e.Offset:e.End()], writeBufs[r][pos:pos+e.Length])
			pos += e.Length
		}
	}
	got := make([]byte, oracleSize)
	if _, err := file.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oracle) {
		t.Fatalf("%s: file contents differ from oracle", s.Name())
	}

	// Collective read into fresh buffers must reproduce the written data.
	readBufs := freshBufs(writeBufs)
	if err := collio.Exec(ctx, plan, rs, readBufs, file, collio.Read); err != nil {
		t.Fatalf("%s: read exec: %v", s.Name(), err)
	}
	for r := range readBufs {
		if !bytes.Equal(readBufs[r], writeBufs[r]) {
			t.Fatalf("%s: rank %d read back different data", s.Name(), r)
		}
	}
}

func TestRoundTripSerial(t *testing.T) {
	params := collio.DefaultParams(128)
	params.MsgGroup = 1200
	params.MsgInd = 400
	params.MemMin = 16
	ctx := buildContext(t, 9, 3, params, nil)
	var reqs []collio.RankRequest
	for r := 0; r < 9; r++ {
		reqs = append(reqs, collio.RankRequest{
			Rank:    r,
			Extents: []pfs.Extent{{Offset: int64(r) * 300, Length: 300}},
		})
	}
	for _, s := range strategies() {
		roundTrip(t, ctx, s, reqs)
	}
}

func TestRoundTripInterleaved(t *testing.T) {
	params := collio.DefaultParams(64)
	params.MsgGroup = 600
	params.MsgInd = 200
	params.MemMin = 8
	ctx := buildContext(t, 6, 2, params, nil)
	var reqs []collio.RankRequest
	const unit = 50
	for r := 0; r < 6; r++ {
		var exts []pfs.Extent
		for seg := 0; seg < 4; seg++ {
			exts = append(exts, pfs.Extent{Offset: int64(seg*6+r) * unit, Length: unit})
		}
		reqs = append(reqs, collio.RankRequest{Rank: r, Extents: exts})
	}
	for _, s := range strategies() {
		roundTrip(t, ctx, s, reqs)
	}
}

func TestRoundTripWithIdleRanks(t *testing.T) {
	params := collio.DefaultParams(64)
	params.MemMin = 8
	ctx := buildContext(t, 6, 2, params, nil)
	reqs := []collio.RankRequest{
		{Rank: 1, Extents: []pfs.Extent{{Offset: 0, Length: 500}}},
		{Rank: 4, Extents: []pfs.Extent{{Offset: 700, Length: 300}}},
	}
	for _, s := range strategies() {
		roundTrip(t, ctx, s, reqs)
	}
}

func TestRoundTripMemoryStarved(t *testing.T) {
	// Two of three nodes have almost no aggregation memory; the
	// memory-conscious plan must still move every byte correctly.
	params := collio.DefaultParams(256)
	params.MsgGroup = 1000
	params.MsgInd = 300
	params.MemMin = 128
	avail := []int64{64, 1 << 20, 32}
	ctx := buildContext(t, 9, 3, params, avail)
	var reqs []collio.RankRequest
	for r := 0; r < 9; r++ {
		reqs = append(reqs, collio.RankRequest{
			Rank:    r,
			Extents: []pfs.Extent{{Offset: int64(r) * 250, Length: 250}},
		})
	}
	for _, s := range strategies() {
		roundTrip(t, ctx, s, reqs)
	}
}

// Property: both strategies round-trip arbitrary disjoint random access
// patterns.
func TestRoundTripRandomPatterns(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	r := stats.NewRNG(71)
	err := quick.Check(func(seed uint64) bool {
		rr := stats.NewRNG(seed)
		ranks := rr.Intn(6) + 2
		perNode := rr.Intn(3) + 1
		params := collio.DefaultParams(int64(rr.Intn(200) + 32))
		params.MsgGroup = int64(rr.Intn(2000) + 200)
		params.MsgInd = int64(rr.Intn(500) + 50)
		params.MemMin = int64(rr.Intn(64))
		ctx := buildContext(t, ranks, perNode, params, nil)

		// Disjoint random extents: slice a permuted block list among ranks.
		const blocks = 24
		const blockLen = 37
		perm := rr.Perm(blocks)
		reqs := make([]collio.RankRequest, ranks)
		for i := range reqs {
			reqs[i].Rank = i
		}
		for i, b := range perm {
			if rr.Float64() < 0.2 {
				continue // leave holes in the file
			}
			r := i % ranks
			reqs[r].Extents = append(reqs[r].Extents,
				pfs.Extent{Offset: int64(b * blockLen), Length: blockLen})
		}
		for _, s := range strategies() {
			// roundTrip calls t.Fatalf on failure, which aborts the quick
			// function; reaching the end means success.
			roundTrip(t, ctx, s, reqs)
		}
		return true
	}, &quick.Config{MaxCount: 25, Rand: mrand.New(mrand.NewSource(int64(r.Uint64())))})
	if err != nil {
		t.Fatal(err)
	}
}

// The headline behavioural claim: under memory pressure with variance, the
// memory-conscious strategy prices faster than classic two-phase.
func TestMemConsciousBeatsBaselineUnderPressure(t *testing.T) {
	const ranks, perNode = 24, 4 // 6 nodes
	buf := int64(1 << 20)
	params := collio.DefaultParams(buf)
	params.MsgInd = 8 * buf
	params.MsgGroup = 32 * buf
	params.MemMin = buf / 2
	// Available memory varies widely: half the nodes are nearly starved
	// (the baseline's fixed one-aggregator-per-node placement pages
	// there), the rest have ample headroom for the memory-conscious
	// placement to use.
	avail := []int64{buf / 16, 8 * buf, buf / 32, 12 * buf, buf / 16, 8 * buf}
	ctx := buildContext(t, ranks, perNode, params, avail)
	ctx.FS = pfs.DefaultConfig(8)

	var reqs []collio.RankRequest
	const per = 4 << 20
	for r := 0; r < ranks; r++ {
		reqs = append(reqs, collio.RankRequest{
			Rank:    r,
			Extents: []pfs.Extent{{Offset: int64(r) * per, Length: per}},
		})
	}
	run := func(s collio.Strategy) float64 {
		plan, err := s.Plan(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(reqs); err != nil {
			t.Fatal(err)
		}
		res, err := collio.CostSet(ctx, plan, collio.NewRequestSet(reqs), collio.Write, sim.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res.Bandwidth
	}
	base := run(twophase.New())
	mc := run(core.New())
	if mc <= base {
		t.Fatalf("memory-conscious (%.1f MB/s) not faster than two-phase (%.1f MB/s) under pressure",
			mc/1e6, base/1e6)
	}
}

// Adversarial access patterns: the strategies must round-trip unbalanced
// and locality-reversed workloads too.
func TestRoundTripAdversarialPatterns(t *testing.T) {
	params := collio.DefaultParams(128)
	params.MsgInd = 400
	params.MsgGroup = 1600
	params.MemMin = 16
	ctx := buildContext(t, 8, 2, params, nil)
	for name, reqs := range map[string][]collio.RankRequest{
		"unbalanced": workload.Unbalanced(8, 64),
		"reversed":   workload.ReversedNodes(8, 200),
	} {
		for _, s := range strategies() {
			t.Run(name+"/"+s.Name(), func(t *testing.T) {
				roundTrip(t, ctx, s, reqs)
			})
		}
	}
}
