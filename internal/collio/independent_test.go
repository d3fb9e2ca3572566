package collio

import (
	"strings"
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
	res, err := CostIndependent(ctx, NewRequestSet(reqs), Write, simOptions())
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

	a, err := CostIndependent(ctx, NewRequestSet(contiguous), Write, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := CostIndependent(ctx, NewRequestSet(strided), Write, simOptions())
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
	res, err := CostIndependent(ctx, NewRequestSet(nil), Read, simOptions())
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
	if _, err := CostIndependent(ctx, NewRequestSet(nil), Read, simOptions()); err == nil {
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
		if _, err := CostIndependent(ctx, NewRequestSet([]RankRequest{ok, bad}), Write, simOptions()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestExecErrorPaths checks every refusal of the executors' shared
// prologue, for the collective and the independent executor alike: each
// is an error, never a panic, and nothing is written.
func TestExecErrorPaths(t *testing.T) {
	ctx := testContext(t)
	plan := &Plan{
		Strategy:   "test",
		Groups:     1,
		GroupRanks: [][]int{{0}},
		Domains: []Domain{{
			Extents: []pfs.Extent{{Offset: 0, Length: 64}}, Bytes: 64,
			Aggregator: 0, AggNode: 0, BufferBytes: 64,
		}},
	}
	// good returns six requests, rank 0 the only one with data, and
	// their buffers.
	good := func() ([]RankRequest, [][]byte) {
		reqs := make([]RankRequest, ctx.Topo.Size())
		for r := range reqs {
			reqs[r].Rank = r
		}
		reqs[0].Extents = []pfs.Extent{{Offset: 0, Length: 64}}
		bufs := make([][]byte, len(reqs))
		bufs[0] = make([]byte, 64)
		return reqs, bufs
	}
	cases := []struct {
		name   string
		mutate func(reqs []RankRequest, bufs [][]byte) ([]RankRequest, [][]byte)
		want   string
	}{
		{"too few requests", func(reqs []RankRequest, bufs [][]byte) ([]RankRequest, [][]byte) {
			return reqs[:2], bufs[:2]
		}, "2 requests and 2 rank buffers for 6 ranks"},
		{"too few buffers", func(reqs []RankRequest, bufs [][]byte) ([]RankRequest, [][]byte) {
			return reqs, bufs[:5]
		}, "6 requests and 5 rank buffers for 6 ranks"},
		{"ranks out of order", func(reqs []RankRequest, bufs [][]byte) ([]RankRequest, [][]byte) {
			reqs[3].Rank, reqs[4].Rank = 4, 3
			return reqs, bufs
		}, "request 3 is for rank 4"},
		{"rank repeated", func(reqs []RankRequest, bufs [][]byte) ([]RankRequest, [][]byte) {
			reqs[3].Rank = 4
			return reqs, bufs
		}, "request 3 is for rank 4"},
		{"buffer too short", func(reqs []RankRequest, bufs [][]byte) ([]RankRequest, [][]byte) {
			bufs[0] = make([]byte, 10)
			return reqs, bufs
		}, "rank 0 buffer is 10 bytes, request needs 64"},
		{"buffer for a rank with no data", func(reqs []RankRequest, bufs [][]byte) ([]RankRequest, [][]byte) {
			bufs[2] = make([]byte, 1)
			return reqs, bufs
		}, "rank 2 buffer is 1 bytes, request needs 0"},
		{"negative extent", func(reqs []RankRequest, bufs [][]byte) ([]RankRequest, [][]byte) {
			reqs[1].Extents = []pfs.Extent{{Offset: 64, Length: -5}}
			return reqs, bufs
		}, "rank 1 requests an extent of negative length -5"},
	}
	execs := []struct {
		name string
		run  func(rs *RequestSet, bufs [][]byte, file *pfs.File) error
	}{
		{"Exec", func(rs *RequestSet, bufs [][]byte, file *pfs.File) error {
			return Exec(ctx, plan, rs, bufs, file, Write)
		}},
		{"ExecIndependent", func(rs *RequestSet, bufs [][]byte, file *pfs.File) error {
			return ExecIndependent(ctx, rs, bufs, file, Write, nil)
		}},
	}
	for _, ex := range execs {
		fsys, err := pfs.NewFileSystem(ctx.FS)
		if err != nil {
			t.Fatal(err)
		}
		file := fsys.Open("errs")
		for _, c := range cases {
			reqs, bufs := c.mutate(good())
			err := ex.run(NewRequestSet(reqs), bufs, file)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s, %s: err = %v, want one containing %q", ex.name, c.name, err, c.want)
			}
		}
		if n := file.Size(); n != 0 {
			t.Fatalf("%s: refused calls wrote a file of %d bytes", ex.name, n)
		}
		reqs, bufs := good()
		if err := ex.run(NewRequestSet(reqs), bufs, file); err != nil {
			t.Fatalf("%s: %v", ex.name, err)
		}
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
	bufs := make([][]byte, 6)
	bufs[0], bufs[1] = bytesOf(0xAA, 32), bytesOf(0xBB, 32)
	if err := Exec(ctx, plan, NewRequestSet(reqs), bufs, file, Write); err != nil {
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
