package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/workload"
)

// divideGroupsNaive is the pre-optimization reference: boundary search by
// re-clipping the whole remaining region, the Fig 4 extension by a scan
// over every node's span, and membership by clipping every rank's
// request list against every window. A rank with several requests is
// read as the union of its lists. Kept as the oracle for the
// prefix-sum/window-assignment implementation in DivideGroups.
func divideGroupsNaive(ctx *collio.Context, reqs []collio.RankRequest) []Group {
	var all []pfs.Extent
	normReq := make(map[int][]pfs.Extent, len(reqs))
	for _, r := range reqs {
		n := pfs.NormalizeExtents(r.Extents)
		if len(n) > 0 {
			normReq[r.Rank] = pfs.NormalizeExtents(append(normReq[r.Rank], n...))
			all = append(all, n...)
		}
	}
	norm := pfs.NormalizeExtents(all)
	if len(norm) == 0 {
		return nil
	}
	type span struct{ lo, hi int64 }
	nodeSpan := map[int]span{}
	for rank, exts := range normReq {
		node := ctx.Topo.NodeOf(rank)
		s, ok := nodeSpan[node]
		if !ok {
			s = span{lo: exts[0].Offset, hi: exts[len(exts)-1].End()}
		} else {
			if exts[0].Offset < s.lo {
				s.lo = exts[0].Offset
			}
			if e := exts[len(exts)-1].End(); e > s.hi {
				s.hi = e
			}
		}
		nodeSpan[node] = s
	}
	msgGroup := ctx.Params.MsgGroup
	end := norm[len(norm)-1].End()
	var groups []Group
	cur := norm[0].Offset
	for cur < end {
		remaining := pfs.Clip(norm, cur, end)
		if len(remaining) == 0 {
			break
		}
		slice := pfs.SliceData(remaining, 0, msgGroup)
		b := slice[len(slice)-1].End()
		if b < end {
			var ext int64
			for _, s := range nodeSpan {
				if s.lo < b && s.hi > b && s.hi > ext {
					ext = s.hi
				}
			}
			if ext > b && ext-b <= msgGroup/2 {
				b = ext
			}
			if b > end {
				b = end
			}
		}
		g := Group{
			Index:   len(groups),
			Region:  pfs.Extent{Offset: cur, Length: b - cur},
			Extents: pfs.Clip(norm, cur, b),
		}
		for rank, exts := range normReq {
			if len(pfs.Clip(exts, cur, b)) > 0 {
				g.Ranks = append(g.Ranks, rank)
			}
		}
		sort.Ints(g.Ranks)
		groups = append(groups, g)
		cur = b
	}
	return groups
}

// groupsCtx builds a group-division context over topo with the given
// MsgGroup.
func groupsCtx(topo mpi.Topology, msgGroup int64) *collio.Context {
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	avail := make([]int64, mc.Nodes)
	for i := range avail {
		avail[i] = mc.MemPerNode
	}
	params := collio.DefaultParams(1 << 10)
	params.MsgGroup = msgGroup
	return &collio.Context{Topo: topo, Machine: mc, Avail: avail, FS: pfs.DefaultConfig(4), Params: params}
}

// divideMix is one randomized request mix of TestDivideGroupsMatchesNaive.
type divideMix struct {
	shuffled   bool // requests out of rank order
	twice      bool // some ranks make a second request
	idle       bool // some ranks request nothing, or send no request
	roundRobin bool // ranks placed round-robin over the nodes
	long       bool // extents long enough to span several windows
	dense      bool // coll_perf-shaped: hundreds of short extents per window
}

func (m divideMix) String() string {
	return fmt.Sprintf("shuffled=%v twice=%v idle=%v roundRobin=%v long=%v dense=%v",
		m.shuffled, m.twice, m.idle, m.roundRobin, m.long, m.dense)
}

// randomDivideCase draws a topology, MsgGroup and request lists of mix m.
func randomDivideCase(t *testing.T, rng *rand.Rand, m divideMix) (*collio.Context, []collio.RankRequest) {
	t.Helper()
	ranks := 2 + rng.Intn(24)
	perNode := 1 + rng.Intn(4)
	nodes := (ranks + perNode - 1) / perNode
	topo, err := mpi.BlockTopology(ranks, perNode)
	if m.roundRobin {
		nodeOf := make([]int, ranks)
		for r := range nodeOf {
			nodeOf[r] = r % nodes
		}
		topo, err = mpi.ExplicitTopology(nodeOf)
	}
	if err != nil {
		t.Fatal(err)
	}
	msgGroup := int64(64 + rng.Intn(4096))
	maxLen := 2 << 10
	if m.long {
		msgGroup = int64(16 + rng.Intn(256))
		maxLen = 8 << 10
	}
	// A dense mix interleaves the ranks' rows as coll_perf's 3-D blocks
	// do: every rank holds rows of a few bytes, one per stride of ranks
	// rows, and two to five windows split the file, so each rank has
	// hundreds of extents in every window it reaches.
	rows, rowLen := 0, int64(0)
	if m.dense {
		rows, rowLen = 200+rng.Intn(600), int64(1+rng.Intn(8))
		msgGroup = int64(ranks*rows) * rowLen / int64(2+rng.Intn(4))
	}
	var reqs []collio.RankRequest
	draw := func(rank int) collio.RankRequest {
		r := collio.RankRequest{Rank: rank}
		if m.dense {
			for i := range rows {
				r.Extents = append(r.Extents, pfs.Extent{Offset: int64(i*ranks+rank) * rowLen, Length: rowLen})
			}
			return r
		}
		for i, n := 0, rng.Intn(5); i < n; i++ {
			r.Extents = append(r.Extents, pfs.Extent{
				Offset: int64(rng.Intn(16 << 10)),
				Length: int64(rng.Intn(maxLen)),
			})
		}
		return r
	}
	for r := 0; r < ranks; r++ {
		switch {
		case m.idle && r%3 == 1:
			continue // no request at all
		case m.idle && r%3 == 2:
			reqs = append(reqs, collio.RankRequest{Rank: r}) // an empty one
		default:
			reqs = append(reqs, draw(r))
		}
		if m.twice && rng.Intn(2) == 0 {
			reqs = append(reqs, draw(r))
		}
	}
	if m.shuffled {
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	}
	return groupsCtx(topo, msgGroup), reqs
}

// TestDivideGroupsMatchesNaive drives the optimized group division
// against the reference on randomized sparse, dense, serial and
// interleaved request mixes: in and out of rank order, with ranks
// making two requests or none, on block and round-robin placements, and
// with extents spanning several windows. Fixed layouts then pin the
// Fig 4 extension both where it fires and where it falls back.
func TestDivideGroupsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 640+64; trial++ {
		m := divideMix{
			shuffled:   trial&1 != 0,
			twice:      trial&2 != 0,
			idle:       trial&4 != 0,
			roundRobin: trial&8 != 0,
			long:       trial&16 != 0,
			dense:      trial >= 640,
		}
		ctx, reqs := randomDivideCase(t, rng, m)
		got := DivideGroups(ctx, reqs)
		want := divideGroupsNaive(ctx, reqs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%v, msgGroup=%d): groups diverge\ngot:  %+v\nwant: %+v",
				trial, m, ctx.Params.MsgGroup, got, want)
		}
	}

	// Sixteen ranks of 100 contiguous bytes, four to a node, so each
	// node's data spans 400 bytes. A 350-byte group puts every tentative
	// boundary 50 bytes inside a node's span, within half a group: the
	// boundary extends to the node's end. A 200-byte group puts every
	// other boundary 200 bytes short of it, past half a group, and the
	// rest on a node's edge: boundaries stay at pure offset calculation. Round-robin placement spans each node
	// over the whole file: no boundary extends.
	reqs := make([]collio.RankRequest, 16)
	for r := range reqs {
		reqs[r] = collio.RankRequest{Rank: r, Extents: []pfs.Extent{{Offset: int64(r) * 100, Length: 100}}}
	}
	block, err := mpi.BlockTopology(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	nodeOf := make([]int, 16)
	for r := range nodeOf {
		nodeOf[r] = r % 4
	}
	roundRobin, err := mpi.ExplicitTopology(nodeOf)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		topo     mpi.Topology
		msgGroup int64
		ends     []int64
	}{
		{"extends to the node's end", block, 350, []int64{400, 800, 1200, 1600}},
		{"falls back past half a group", block, 200, []int64{200, 400, 600, 800, 1000, 1200, 1400, 1600}},
		{"round-robin nodes span the file", roundRobin, 350, []int64{350, 700, 1050, 1400, 1600}},
	} {
		ctx := groupsCtx(c.topo, c.msgGroup)
		got := DivideGroups(ctx, reqs)
		if want := divideGroupsNaive(ctx, reqs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: groups diverge\ngot:  %+v\nwant: %+v", c.name, got, want)
		}
		var ends []int64
		for _, g := range got {
			ends = append(ends, g.Region.End())
		}
		if !reflect.DeepEqual(ends, c.ends) {
			t.Fatalf("%s: window ends %v, want %v", c.name, ends, c.ends)
		}
	}

	// Runs of exactly 1, 2, 2^k−1, 2^k and 2^k+1 extents inside one
	// window, where the membership walk's exponential search can be off
	// by one. Rank 0 covers the file [0, 4096) and spans every boundary
	// by more than half a group, so the windows are exactly the 256-byte
	// tiles. Each other rank holds a run of one-byte extents at stride 2
	// in one tile, and after it nothing (the run ends the list), an
	// extent reaching one byte into the next tile, an extent two tiles
	// on, or a one-byte extent at the next tile's start; a fifth kind
	// enters the run's tile by straddling in from the tile before. A
	// skip past the run's end, even by one extent or one byte, drops the
	// rank from a window.
	const tile = 256
	runReqs := []collio.RankRequest{{Rank: 0, Extents: []pfs.Extent{{Offset: 0, Length: 16 * tile}}}}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65} {
		for kind := range 5 {
			w := int64(1 + len(runReqs)%13)
			r := collio.RankRequest{Rank: len(runReqs)}
			if kind == 4 {
				r.Extents = append(r.Extents, pfs.Extent{Offset: w*tile - 4, Length: 5})
			}
			for i := range n {
				r.Extents = append(r.Extents, pfs.Extent{Offset: w*tile + 2 + 2*int64(i), Length: 1})
			}
			switch kind {
			case 1, 4:
				r.Extents = append(r.Extents, pfs.Extent{Offset: (w+1)*tile - 1, Length: 2})
			case 2:
				r.Extents = append(r.Extents, pfs.Extent{Offset: (w+2)*tile + 5, Length: 1})
			case 3:
				r.Extents = append(r.Extents, pfs.Extent{Offset: (w + 1) * tile, Length: 1})
			}
			runReqs = append(runReqs, r)
		}
	}
	runTopo, err := mpi.BlockTopology(len(runReqs), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := groupsCtx(runTopo, tile)
	got := DivideGroups(ctx, runReqs)
	if want := divideGroupsNaive(ctx, runReqs); !reflect.DeepEqual(got, want) {
		t.Fatalf("runs: groups diverge\ngot:  %+v\nwant: %+v", got, want)
	}
	if len(got) != 16 {
		t.Fatalf("runs: %d windows, want the 16 tiles", len(got))
	}
}

// FuzzDivideGroups checks group division against the reference on
// decoded cases. The first three bytes pick the rank count, the node
// count, the placement (block or round-robin) and MsgGroup; each
// following byte triple is a (rank, offset, length) extent, joined to
// the previous request when it names the same rank and opening a new
// request otherwise, so ranks come out of order and may request twice.
// A rank byte with its top bit set makes the triple a run instead, as
// coll_perf's rows are: 1 to 256 one-byte extents at stride 2 from the
// offset, the length byte giving the count.
func FuzzDivideGroups(f *testing.F) {
	f.Add([]byte{15, 3, 40, 0, 0, 25, 1, 25, 25, 2, 50, 25, 3, 75, 25, 4, 100, 25})
	f.Add([]byte{7, 1, 9, 3, 10, 200, 1, 0, 30, 3, 90, 5, 0, 40, 40, 2, 5, 5})
	f.Add([]byte{11, 2, 200, 5, 0, 250, 5, 30, 10, 0, 100, 255, 9, 3, 1})
	// Runs of 1, 2, 15, 16, 17 and 256 extents against 64- and 16-byte
	// groups, the last ones ending their lists.
	f.Add([]byte{3, 1, 14, 0, 0, 255, 129, 2, 0, 129, 10, 1, 130, 4, 14, 130, 40, 15, 128, 70, 16, 2, 90, 3})
	f.Add([]byte{5, 2, 3, 128, 0, 255, 129, 1, 64, 129, 60, 2, 130, 3, 30, 131, 9, 15, 132, 20, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		ranks := 1 + int(data[0])%24
		nodes := 1 + int(data[1])%ranks
		nodeOf := make([]int, ranks)
		for r := range nodeOf {
			if data[2]&1 == 0 {
				nodeOf[r] = r * nodes / ranks
			} else {
				nodeOf[r] = r % nodes
			}
		}
		topo, err := mpi.ExplicitTopology(nodeOf)
		if err != nil {
			t.Fatal(err)
		}
		ctx := groupsCtx(topo, 8+int64(data[2]>>1)*8)
		var reqs []collio.RankRequest
		for i := 3; i+3 <= len(data); i += 3 {
			rank := int(data[i]&127) % ranks
			off := int64(data[i+1]) * 8
			exts := []pfs.Extent{{Offset: off, Length: int64(data[i+2]) * 4}}
			if data[i]&128 != 0 {
				exts = make([]pfs.Extent, 1+int(data[i+2]))
				for k := range exts {
					exts[k] = pfs.Extent{Offset: off + 2*int64(k), Length: 1}
				}
			}
			if n := len(reqs); n > 0 && reqs[n-1].Rank == rank {
				reqs[n-1].Extents = append(reqs[n-1].Extents, exts...)
				continue
			}
			reqs = append(reqs, collio.RankRequest{Rank: rank, Extents: exts})
		}
		got := DivideGroups(ctx, reqs)
		if want := divideGroupsNaive(ctx, reqs); !reflect.DeepEqual(got, want) {
			t.Fatalf("groups diverge\ngot:  %+v\nwant: %+v", got, want)
		}
	})
}

// TestDivideGroupsAllocsIndependentOfRanks pins that every list group
// division returns is allocated once, at its final size: over the same
// windows, dividing a thousand ranks and ten thousand ranks allocates
// the same number of times.
func TestDivideGroupsAllocsIndependentOfRanks(t *testing.T) {
	// 10k units of 64 bytes on 100 nodes: 1k ranks of 10 units or 10k
	// ranks of one. The union, the node spans and so the windows match.
	allocs := func(ranks int) float64 {
		topo, err := mpi.BlockTopology(ranks, ranks/100)
		if err != nil {
			t.Fatal(err)
		}
		unit := int64(64) * int64(10_000/ranks)
		reqs := make([]collio.RankRequest, ranks)
		for r := range reqs {
			reqs[r] = collio.RankRequest{Rank: r, Extents: []pfs.Extent{{Offset: int64(r) * unit, Length: unit}}}
		}
		ctx := groupsCtx(topo, 64*10_000/37)
		rs := collio.NewRequestSet(reqs)
		if n := len(DivideGroupsSet(ctx, rs)); n < 30 {
			t.Fatalf("%d ranks: %d groups, want the same 30 or more for both", ranks, n)
		}
		return testing.AllocsPerRun(5, func() { DivideGroupsSet(ctx, rs) })
	}
	if small, large := allocs(1_000), allocs(10_000); small != large {
		t.Fatalf("group division allocates %v times for 1k ranks and %v for 10k over the same windows", small, large)
	}
}

// BenchmarkDivideGroupsSetCollPerf divides the coll_perf request set of
// Figure 6 at the default scale, a 512³ array of 4-byte elements over
// 120 ranks on 10 nodes (about 9k extents of 512 bytes per rank), into
// windows of a sixteenth of the file: each rank has hundreds of extents
// in every window it reaches.
func BenchmarkDivideGroupsSetCollPerf(b *testing.B) {
	grid, err := workload.DimsCreate(120)
	if err != nil {
		b.Fatal(err)
	}
	c := workload.CollPerf{ArrayDim: 512, ElemBytes: 4, Grid: grid}
	reqs, err := c.Requests()
	if err != nil {
		b.Fatal(err)
	}
	topo, err := mpi.BlockTopology(120, 12)
	if err != nil {
		b.Fatal(err)
	}
	ctx := groupsCtx(topo, c.TotalBytes()/16)
	rs := collio.NewRequestSet(reqs)
	rs.Union() // computed once per set, as a sweep does
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		DivideGroupsSet(ctx, rs)
	}
}
