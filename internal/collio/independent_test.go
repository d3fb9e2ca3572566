package collio

import (
	"testing"

	"mcio/internal/pfs"
)

func TestCostIndependentBasics(t *testing.T) {
	ctx := testContext(t)
	reqs := []RankRequest{
		{Rank: 0, Extents: []pfs.Extent{{Offset: 0, Length: 1 << 20}}},
		{Rank: 3, Extents: []pfs.Extent{{Offset: 1 << 20, Length: 1 << 20}}},
		{Rank: 5}, // sits out
	}
	res, err := CostIndependent(ctx, reqs, Write, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "independent" {
		t.Fatalf("strategy = %q", res.Strategy)
	}
	if res.UserBytes != 2<<20 {
		t.Fatalf("user bytes = %d", res.UserBytes)
	}
	if res.Bandwidth <= 0 || res.Seconds <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.MaxRounds != 1 {
		t.Fatalf("independent I/O has no rounds, got %d", res.MaxRounds)
	}
	if res.Totals.ShufBytes != 0 {
		t.Fatal("independent I/O must not shuffle")
	}
}

func TestCostIndependentPenalizesFragmentation(t *testing.T) {
	ctx := testContext(t)
	// Same volume, contiguous vs finely strided per rank.
	contiguous := []RankRequest{
		{Rank: 0, Extents: []pfs.Extent{{Offset: 0, Length: 4 << 20}}},
	}
	var strided []RankRequest
	var exts []pfs.Extent
	const piece = 4 << 10
	for i := 0; i < (4<<20)/piece; i++ {
		exts = append(exts, pfs.Extent{Offset: int64(i) * 2 * piece, Length: piece})
	}
	strided = []RankRequest{{Rank: 0, Extents: exts}}

	a, err := CostIndependent(ctx, contiguous, Write, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := CostIndependent(ctx, strided, Write, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	if b.Bandwidth >= a.Bandwidth {
		t.Fatalf("fragmented independent I/O not slower: %v vs %v", b.Bandwidth, a.Bandwidth)
	}
	if b.Totals.Requests <= a.Totals.Requests {
		t.Fatal("fragmentation must issue more requests")
	}
}

func TestCostIndependentEmpty(t *testing.T) {
	ctx := testContext(t)
	res, err := CostIndependent(ctx, nil, Read, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.UserBytes != 0 || res.Bandwidth != 0 {
		t.Fatalf("empty request result: %+v", res)
	}
}

func TestCostIndependentValidatesContext(t *testing.T) {
	ctx := testContext(t)
	ctx.Avail = nil
	if _, err := CostIndependent(ctx, nil, Read, simOptions()); err == nil {
		t.Fatal("invalid context accepted")
	}
}

// TestCostIndependentRejectsBadRequests checks that a rank outside the
// topology, or an extent of negative length, is an error rather than a
// panic.
func TestCostIndependentRejectsBadRequests(t *testing.T) {
	ctx := testContext(t)
	ok := RankRequest{Rank: 0, Extents: []pfs.Extent{{Offset: 0, Length: 64}}}
	for name, bad := range map[string]RankRequest{
		"rank -1":        {Rank: -1, Extents: []pfs.Extent{{Offset: 64, Length: 64}}},
		"rank Size":      {Rank: ctx.Topo.Size(), Extents: []pfs.Extent{{Offset: 64, Length: 64}}},
		"negative bytes": {Rank: 1, Extents: []pfs.Extent{{Offset: 64, Length: -1}}},
	} {
		if _, err := CostIndependent(ctx, []RankRequest{ok, bad}, Write, simOptions()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestExecErrorPaths(t *testing.T) {
	ctx := testContext(t)
	reqs := []RankRequest{
		{Rank: 0, Extents: []pfs.Extent{{Offset: 0, Length: 64}}},
		{Rank: 1}, {Rank: 2}, {Rank: 3}, {Rank: 4}, {Rank: 5},
	}
	plan := &Plan{
		Strategy:   "test",
		Groups:     1,
		GroupRanks: [][]int{{0}},
		Domains: []Domain{{
			Extents: []pfs.Extent{{Offset: 0, Length: 64}}, Bytes: 64,
			Aggregator: 0, AggNode: 0, BufferBytes: 64,
		}},
	}
	fsys, err := pfs.NewFileSystem(ctx.FS)
	if err != nil {
		t.Fatal(err)
	}
	file := fsys.Open("errs")

	// Wrong number of rank buffers.
	if err := Exec(ctx, plan, make([]RankData, 2), file, Write); err == nil {
		t.Fatal("short data accepted")
	}
	// Mislabeled rank.
	data := make([]RankData, 6)
	for r := range data {
		data[r].Req.Rank = r
	}
	data[0].Req = reqs[0]
	data[0].Buf = make([]byte, 64)
	data[3].Req.Rank = 4
	if err := Exec(ctx, plan, data, file, Write); err == nil {
		t.Fatal("mislabeled rank accepted")
	}
	data[3].Req.Rank = 3
	// Wrong buffer size.
	data[0].Buf = make([]byte, 10)
	if err := Exec(ctx, plan, data, file, Write); err == nil {
		t.Fatal("wrong buffer size accepted")
	}
	data[0].Buf = make([]byte, 64)
	if err := Exec(ctx, plan, data, file, Write); err != nil {
		t.Fatal(err)
	}
}

func TestExecOverlappingWritesLastRankWins(t *testing.T) {
	// Two ranks write the same extent: the documented outcome is that a
	// higher rank's bytes survive (aggregator assembles in rank order).
	ctx := testContext(t)
	ext := []pfs.Extent{{Offset: 0, Length: 32}}
	reqs := []RankRequest{
		{Rank: 0, Extents: ext},
		{Rank: 1, Extents: ext},
		{Rank: 2}, {Rank: 3}, {Rank: 4}, {Rank: 5},
	}
	plan := &Plan{
		Strategy:   "test",
		Groups:     1,
		GroupRanks: [][]int{{0, 1}},
		Domains: []Domain{{
			Extents: ext, Bytes: 32, Aggregator: 2, AggNode: 1, BufferBytes: 32,
		}},
	}
	fsys, err := pfs.NewFileSystem(ctx.FS)
	if err != nil {
		t.Fatal(err)
	}
	file := fsys.Open("overlap")
	data := make([]RankData, 6)
	for r := range data {
		data[r].Req.Rank = r
	}
	data[0] = RankData{Req: reqs[0], Buf: bytesOf(0xAA, 32)}
	data[1] = RankData{Req: reqs[1], Buf: bytesOf(0xBB, 32)}
	if err := Exec(ctx, plan, data, file, Write); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 32)
	file.ReadAt(got, 0)
	for i, b := range got {
		if b != 0xBB {
			t.Fatalf("byte %d = %#x, want rank 1's 0xBB", i, b)
		}
	}
}

func bytesOf(v byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = v
	}
	return out
}
