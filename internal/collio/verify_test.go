package collio_test

import (
	"bytes"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/faults"
	"mcio/internal/integrity"
	"mcio/internal/pfs"
	"mcio/internal/twophase"
)

// verifySetup plans a serial write workload and returns everything a
// verified-execution test needs: context, plan, requests, filled rank
// buffers and the fault-free oracle.
func verifySetup(t *testing.T, ranks, perNode int) (*collio.Context, *collio.Plan, []collio.RankRequest, []collio.RankData, []byte) {
	t.Helper()
	ctx := buildContext(t, ranks, perNode, collio.DefaultParams(256), nil)
	reqs := make([]collio.RankRequest, ranks)
	const chunk = 512
	for r := 0; r < ranks; r++ {
		reqs[r] = collio.RankRequest{Rank: r, Extents: []pfs.Extent{
			{Offset: int64(r) * chunk, Length: chunk},
		}}
	}
	plan, err := twophase.New().Plan(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]collio.RankData, ranks)
	oracle := make([]byte, int64(ranks)*chunk)
	for r := range data {
		buf := make([]byte, reqs[r].Bytes())
		fillPattern(r, buf)
		data[r] = collio.RankData{Req: reqs[r], Buf: buf}
		copy(oracle[int64(r)*chunk:], buf)
	}
	return ctx, plan, reqs, data, oracle
}

// flipPlan schedules n MsgBitFlip events on every node of the topology.
func flipPlan(nodes, n int) *faults.Plan {
	p := &faults.Plan{}
	for node := 0; node < nodes; node++ {
		for i := 0; i < n; i++ {
			p.Events = append(p.Events, faults.Event{
				Kind: faults.MsgBitFlip, Time: float64(i), Node: node, Target: -1})
		}
	}
	return p
}

// tornPlan schedules n TornWrite events on every target.
func tornPlan(targets, n int) *faults.Plan {
	p := &faults.Plan{}
	for tgt := 0; tgt < targets; tgt++ {
		for i := 0; i < n; i++ {
			p.Events = append(p.Events, faults.Event{
				Kind: faults.TornWrite, Time: float64(i), Node: -1, Target: tgt})
		}
	}
	return p
}

func ranksByNode(ctx *collio.Context) [][]int {
	out := make([][]int, ctx.Topo.Nodes())
	for r := 0; r < ctx.Topo.Size(); r++ {
		n := ctx.Topo.NodeOf(r)
		out[n] = append(out[n], r)
	}
	return out
}

func TestExecVerifiedCleanRoundTrip(t *testing.T) {
	ctx, plan, reqs, data, oracle := verifySetup(t, 6, 2)
	fsys, err := pfs.NewFileSystem(ctx.FS)
	if err != nil {
		t.Fatal(err)
	}
	file := fsys.Open("clean")
	chk := integrity.NewChecker(integrity.Config{Seed: 3, Repair: true})

	if err := collio.ExecVerified(ctx, plan, data, file, collio.Write, chk, nil, nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(oracle))
	if _, err := file.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oracle) {
		t.Fatal("verified write differs from oracle")
	}

	readData := make([]collio.RankData, len(data))
	for i := range readData {
		readData[i] = collio.RankData{Req: reqs[i], Buf: make([]byte, len(data[i].Buf))}
	}
	if err := collio.ExecVerified(ctx, plan, readData, file, collio.Read, chk, nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := range readData {
		if !bytes.Equal(readData[i].Buf, data[i].Buf) {
			t.Fatalf("rank %d read back different bytes", i)
		}
	}

	rep := chk.Report()
	if rep.Stamped == 0 || rep.Verified == 0 {
		t.Fatalf("integrity layer idle on the verified path: %+v", rep)
	}
	if rep.Detected != 0 || rep.Repaired != 0 || rep.Unrepaired != 0 || rep.RewrittenBytes != 0 {
		t.Fatalf("clean run reported corruption: %+v", rep)
	}
}

func TestExecVerifiedNilCheckerIsExec(t *testing.T) {
	ctx, plan, _, data, oracle := verifySetup(t, 6, 2)
	fsys, err := pfs.NewFileSystem(ctx.FS)
	if err != nil {
		t.Fatal(err)
	}
	file := fsys.Open("legacy")
	if err := collio.ExecVerified(ctx, plan, data, file, collio.Write, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(oracle))
	if _, err := file.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oracle) {
		t.Fatal("nil-checker ExecVerified is not byte-identical to Exec")
	}
}

func TestExecVerifiedRepairsMessageFlips(t *testing.T) {
	ctx, plan, _, data, oracle := verifySetup(t, 6, 2)
	fsys, err := pfs.NewFileSystem(ctx.FS)
	if err != nil {
		t.Fatal(err)
	}
	file := fsys.Open("flips")
	corr := faults.NewCorrupter(flipPlan(ctx.Topo.Nodes(), 2), ranksByNode(ctx))
	chk := integrity.NewChecker(integrity.Config{Seed: 5, Repair: true})

	if err := collio.ExecVerified(ctx, plan, data, file, collio.Write, chk, corr, nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(oracle))
	if _, err := file.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oracle) {
		t.Fatal("repair-enabled write left corrupted bytes in the file")
	}
	rep := chk.Report()
	if corr.InjectedFlips() == 0 {
		t.Fatal("no flips were injected; the test exercised nothing")
	}
	if int(rep.Detected) != corr.Injected() {
		t.Fatalf("detected %d of %d injected corruptions", rep.Detected, corr.Injected())
	}
	if rep.Repaired == 0 || rep.Unrepaired != 0 {
		t.Fatalf("repair accounting: %+v", rep)
	}
}

// A chunk corrupted on every resend exhausts the repair budget: the
// verifier re-requests it exactly MaxRepairs times, counts each failing
// resend as a fresh detection, and ends the chunk Unrepaired.
func TestExecVerifiedRepairBudgetRunsOut(t *testing.T) {
	ctx, plan, _, data, _ := verifySetup(t, 6, 2)
	fsys, err := pfs.NewFileSystem(ctx.FS)
	if err != nil {
		t.Fatal(err)
	}
	file := fsys.Open("budget")
	// Far more flips on every node than its ranks send messages: every chunk
	// they ship, and every resend of it, lands corrupted.
	corr := faults.NewCorrupter(flipPlan(ctx.Topo.Nodes(), 1000), ranksByNode(ctx))
	chk := integrity.NewChecker(integrity.Config{Seed: 5, Repair: true})

	if err := collio.ExecVerified(ctx, plan, data, file, collio.Write, chk, corr, nil); err != nil {
		t.Fatal(err)
	}
	rep := chk.Report()
	if rep.Unrepaired == 0 {
		t.Fatalf("no chunk exhausted its budget: %+v", rep)
	}
	if rep.Repaired != 0 {
		t.Fatalf("a chunk corrupted on every resend was repaired: %+v", rep)
	}
	// Each unrepaired chunk: one detection on arrival, one per failing
	// resend, and exactly the budget of resends.
	if want := rep.Unrepaired * (1 + integrity.MaxRepairs); rep.Detected != want {
		t.Fatalf("detected %d, want %d unrepaired chunks x (1 + %d resends) = %d",
			rep.Detected, rep.Unrepaired, integrity.MaxRepairs, want)
	}
	if int(rep.Detected) != corr.InjectedFlips() {
		t.Fatalf("detected %d of %d injected flips", rep.Detected, corr.InjectedFlips())
	}
}

func TestExecVerifiedDetectsFlipsWithoutRepair(t *testing.T) {
	ctx, plan, _, data, _ := verifySetup(t, 6, 2)
	fsys, err := pfs.NewFileSystem(ctx.FS)
	if err != nil {
		t.Fatal(err)
	}
	file := fsys.Open("flips-norepair")
	corr := faults.NewCorrupter(flipPlan(ctx.Topo.Nodes(), 2), ranksByNode(ctx))
	chk := integrity.NewChecker(integrity.Config{Seed: 5})

	if err := collio.ExecVerified(ctx, plan, data, file, collio.Write, chk, corr, nil); err != nil {
		t.Fatal(err)
	}
	rep := chk.Report()
	if corr.InjectedFlips() == 0 {
		t.Fatal("no flips were injected; the test exercised nothing")
	}
	// The detection-equality guarantee: without repair, every injected
	// corruption is detected exactly once, and every detection is
	// accounted unrepaired.
	if int(rep.Detected) != corr.Injected() {
		t.Fatalf("detected %d of %d injected corruptions", rep.Detected, corr.Injected())
	}
	if rep.Unrepaired != rep.Detected || rep.Repaired != 0 || rep.RewrittenBytes != 0 {
		t.Fatalf("repair-off accounting: %+v", rep)
	}
}

func TestExecVerifiedRepairsTornWrites(t *testing.T) {
	ctx, plan, _, data, oracle := verifySetup(t, 6, 2)
	fsys, err := pfs.NewFileSystem(ctx.FS)
	if err != nil {
		t.Fatal(err)
	}
	file := fsys.Open("torn")
	corr := faults.NewCorrupter(tornPlan(ctx.FS.Targets, 2), ranksByNode(ctx))
	fsys.SetCorrupter(corr)
	defer fsys.SetCorrupter(nil)
	chk := integrity.NewChecker(integrity.Config{Seed: 9, Repair: true})

	if err := collio.ExecVerified(ctx, plan, data, file, collio.Write, chk, corr, nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(oracle))
	if _, err := file.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oracle) {
		t.Fatal("repair-enabled write left torn bytes in the file")
	}
	rep := chk.Report()
	if corr.InjectedTorn() == 0 {
		t.Fatal("no torn writes were injected; the test exercised nothing")
	}
	if int(rep.Detected) != corr.Injected() {
		t.Fatalf("detected %d of %d injected tears", rep.Detected, corr.Injected())
	}
	if rep.RewrittenBytes == 0 || rep.Repaired == 0 || rep.Unrepaired != 0 {
		t.Fatalf("rewrite accounting: %+v", rep)
	}
}

func TestExecIndependentRoundTrip(t *testing.T) {
	ctx, _, reqs, data, oracle := verifySetup(t, 6, 2)
	fsys, err := pfs.NewFileSystem(ctx.FS)
	if err != nil {
		t.Fatal(err)
	}
	file := fsys.Open("independent")
	chk := integrity.NewChecker(integrity.Config{Seed: 11, Repair: true})
	corr := faults.NewCorrupter(tornPlan(ctx.FS.Targets, 1), ranksByNode(ctx))
	fsys.SetCorrupter(corr)
	defer fsys.SetCorrupter(nil)

	if err := collio.ExecIndependent(ctx, data, file, collio.Write, chk); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(oracle))
	if _, err := file.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oracle) {
		t.Fatal("independent write (with repair) differs from oracle")
	}
	rep := chk.Report()
	if corr.InjectedTorn() == 0 || rep.Detected == 0 || rep.Unrepaired != 0 {
		t.Fatalf("independent path accounting: injected %d, report %+v", corr.InjectedTorn(), rep)
	}

	readData := make([]collio.RankData, len(data))
	for i := range readData {
		readData[i] = collio.RankData{Req: reqs[i], Buf: make([]byte, len(data[i].Buf))}
	}
	if err := collio.ExecIndependent(ctx, readData, file, collio.Read, chk); err != nil {
		t.Fatal(err)
	}
	for i := range readData {
		if !bytes.Equal(readData[i].Buf, data[i].Buf) {
			t.Fatalf("rank %d independent read back different bytes", i)
		}
	}
}
