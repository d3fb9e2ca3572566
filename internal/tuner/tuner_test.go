package tuner

import (
	"strings"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/workload"
)

func testContext(t *testing.T) (*collio.Context, []collio.RankRequest) {
	t.Helper()
	topo, err := mpi.BlockTopology(24, 4)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.Testbed640().Scaled(topo.Nodes())
	avail := make([]int64, topo.Nodes())
	for i := range avail {
		avail[i] = int64(i+1) * (512 << 10)
	}
	ctx := &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   avail,
		FS:      pfs.DefaultConfig(8),
		Params:  collio.DefaultParams(256 << 10),
	}
	w := workload.IOR{Ranks: 24, BlockSize: 512 << 10, TransferSize: 512 << 10, Segments: 4}
	reqs, err := w.Requests()
	if err != nil {
		t.Fatal(err)
	}
	return ctx, reqs
}

func TestTuneFindsACandidate(t *testing.T) {
	ctx, reqs := testContext(t)
	res, err := Tune(ctx, collio.NewRequestSet(reqs), collio.Write, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 4*5 { // default grid: 4 Nah x 5 MsgInd x 1 group
		t.Fatalf("evaluations = %d", res.Evaluations)
	}
	if res.Best.Bandwidth <= 0 {
		t.Fatal("best candidate has no bandwidth")
	}
	// Candidates are sorted best-first.
	for i := 1; i < len(res.Candidates); i++ {
		if res.Candidates[i].Bandwidth > res.Candidates[i-1].Bandwidth {
			t.Fatal("candidates not sorted")
		}
	}
}

func TestTuneBestBeatsDefaults(t *testing.T) {
	ctx, reqs := testContext(t)
	opt := sim.DefaultOptions()
	res, err := Tune(ctx, collio.NewRequestSet(reqs), collio.Write, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The tuned parameters must be at least as good as the untuned
	// defaults (which are in the grid's span).
	defaultIdx := -1
	for i, c := range res.Candidates {
		if c.Params.Nah == ctx.Params.Nah && c.Params.MsgInd == ctx.Params.CollBufSize {
			defaultIdx = i
			break
		}
	}
	if defaultIdx == -1 {
		t.Skip("default point not in grid")
	}
	if res.Best.Bandwidth < res.Candidates[defaultIdx].Bandwidth {
		t.Fatal("best candidate worse than default")
	}
}

func TestTuneDeterministic(t *testing.T) {
	ctx, reqs := testContext(t)
	a, err := Tune(ctx, collio.NewRequestSet(reqs), collio.Read, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Tune(ctx, collio.NewRequestSet(reqs), collio.Read, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Bandwidth != b.Best.Bandwidth || a.Best.Params != b.Best.Params {
		t.Fatal("tuner not deterministic")
	}
}

// Tune searches every (Nah, Msg_ind factor) pair of the grid once, with
// Msg_group 8 x Msg_ind and the context's CollBufSize and MemMin kept.
func TestTuneSearchesTheGrid(t *testing.T) {
	ctx, reqs := testContext(t)
	res, err := Tune(ctx, collio.NewRequestSet(reqs), collio.Write, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int64]bool{}
	for _, c := range res.Candidates {
		p := c.Params
		if p.MsgGroup != 8*p.MsgInd || p.CollBufSize != ctx.Params.CollBufSize || p.MemMin != ctx.Params.MemMin {
			t.Fatalf("grid not respected: %+v", p)
		}
		seen[[2]int64{int64(p.Nah), p.MsgInd / p.CollBufSize}] = true
	}
	for _, nah := range []int64{1, 2, 4, 8} {
		for _, mf := range []int64{1, 2, 4, 8, 16} {
			if !seen[[2]int64{nah, mf}] {
				t.Fatalf("Nah %d, Msg_ind factor %d not searched", nah, mf)
			}
		}
	}
	if len(seen) != res.Evaluations || len(res.Candidates) != res.Evaluations {
		t.Fatalf("%d distinct points, %d candidates, %d evaluations", len(seen), len(res.Candidates), res.Evaluations)
	}
}

func TestTuneRejectsBadInput(t *testing.T) {
	ctx, reqs := testContext(t)
	bad := *ctx
	bad.Avail = nil
	if _, err := Tune(&bad, collio.NewRequestSet(reqs), collio.Write, sim.DefaultOptions()); err == nil {
		t.Fatal("invalid context accepted")
	}
}

func TestRender(t *testing.T) {
	ctx, reqs := testContext(t)
	res, err := Tune(ctx, collio.NewRequestSet(reqs), collio.Write, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render(3)
	if !strings.Contains(out, "Nah") || !strings.Contains(out, "MB/s") {
		t.Fatalf("render output:\n%s", out)
	}
	if strings.Count(out, "\n") != 5 { // title + header + 3 rows
		t.Fatalf("render should show 3 rows:\n%s", out)
	}
	// Render with out-of-range top shows everything.
	all := res.Render(0)
	if strings.Count(all, "\n") != 2+len(res.Candidates) {
		t.Fatal("render(0) should show all candidates")
	}
}
