package core

import (
	"bytes"
	"reflect"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/faults"
	"mcio/internal/integrity"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/obs"
	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// degradeCtx builds a small context with the given per-node availability
// and a serial 8-rank workload.
func degradeCtx(t *testing.T, availEach int64, params collio.Params) (*collio.Context, []collio.RankRequest) {
	t.Helper()
	topo, err := mpi.BlockTopology(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	avail := make([]int64, topo.Nodes())
	for i := range avail {
		avail[i] = availEach
	}
	fsCfg := pfs.DefaultConfig(4)
	fsCfg.StripeUnit = 64
	ctx := &collio.Context{Topo: topo, Machine: mc, Avail: avail,
		FS: fsCfg, Params: params, Obs: obs.New()}
	var reqs []collio.RankRequest
	for r := 0; r < 8; r++ {
		reqs = append(reqs, collio.RankRequest{Rank: r,
			Extents: []pfs.Extent{{Offset: int64(r) * 400, Length: 400}}})
	}
	return ctx, reqs
}

func TestPlanWithDegradationAmplePassThrough(t *testing.T) {
	params := collio.DefaultParams(128)
	params.MemMin = 512
	ctx, reqs := degradeCtx(t, 1<<20, params)

	dp, err := New().PlanWithDegradation(ctx, collio.NewRequestSet(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if dp.Independent || dp.Shrinks != 0 {
		t.Fatalf("ample memory degraded: independent=%v shrinks=%d", dp.Independent, dp.Shrinks)
	}
	if dp.Params != ctx.Params {
		t.Fatalf("ample memory changed params: %+v", dp.Params)
	}
	plain, _, err := New().PlanWithState(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dp.Plan.Domains, plain.Domains) {
		t.Fatal("pass-through plan differs from PlanWithState")
	}
	if got := ctx.Obs.Counter("plan.degraded",
		obs.L("strategy", "memory-conscious"), obs.L("mode", "shrunk")).Value(); got != 0 {
		t.Fatalf("pass-through counted %d shrunk degradations", got)
	}
}

func TestPlanWithDegradationShrinksAppetite(t *testing.T) {
	params := collio.DefaultParams(128)
	params.MemMin = 512
	// Every node holds 300 bytes: below Mem_min (starved), above the
	// first rung's halved Mem_min of 256.
	ctx, reqs := degradeCtx(t, 300, params)

	dp, err := New().PlanWithDegradation(ctx, collio.NewRequestSet(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if dp.Independent {
		t.Fatal("shrinkable starvation fell through to independent I/O")
	}
	if dp.Shrinks < 1 || dp.Shrinks > 3 {
		t.Fatalf("shrink steps = %d, want 1..3", dp.Shrinks)
	}
	if dp.Params.MemMin >= params.MemMin || dp.Params.MsgInd >= params.MsgInd ||
		dp.Params.CollBufSize >= params.CollBufSize {
		t.Fatalf("shrunk params did not shrink: %+v", dp.Params)
	}
	if err := dp.Plan.Validate(reqs); err != nil {
		t.Fatalf("shrunk plan invalid: %v", err)
	}
	for i, d := range dp.Plan.Domains {
		if d.PagedSeverity > 0 {
			t.Fatalf("shrunk plan accepted paged domain %d (severity %v)", i, d.PagedSeverity)
		}
		if ctx.Avail[d.AggNode] < dp.Params.MemMin {
			t.Fatalf("domain %d placed on node %d below the shrunk Mem_min", i, d.AggNode)
		}
	}
	if dp.State == nil {
		t.Fatal("shrunk plan carries no recovery state")
	}
	if got := ctx.Obs.Counter("plan.degraded",
		obs.L("strategy", "memory-conscious"), obs.L("mode", "shrunk")).Value(); got != 1 {
		t.Fatalf("plan.degraded{mode=shrunk} = %d, want 1", got)
	}
}

func TestPlanWithDegradationIndependentFallback(t *testing.T) {
	params := collio.DefaultParams(128)
	params.MemMin = 512
	// 16 bytes per node is below every rung (512 -> 256 -> 128 -> 64):
	// aggregation is impossible, but the I/O must still proceed.
	ctx, reqs := degradeCtx(t, 16, params)

	dp, err := New().PlanWithDegradation(ctx, collio.NewRequestSet(reqs))
	if err != nil {
		t.Fatal(err)
	}
	if !dp.Independent || dp.Plan != nil {
		t.Fatalf("fully starved machine did not fall back to independent I/O: %+v", dp)
	}
	if got := ctx.Obs.Counter("plan.degraded",
		obs.L("strategy", "memory-conscious"), obs.L("mode", "independent")).Value(); got != 1 {
		t.Fatalf("plan.degraded{mode=independent} = %d, want 1", got)
	}

	// The last rung really performs the I/O: independent write + read
	// round-trips byte-exactly, verified end to end.
	fsys, err := pfs.NewFileSystem(ctx.FS)
	if err != nil {
		t.Fatal(err)
	}
	file := fsys.Open("independent-fallback")
	chk := integrity.NewChecker(integrity.Config{Seed: 21, Repair: true})
	rs := collio.NewRequestSet(reqs)
	bufs := make([][]byte, rs.Len())
	oracle := make([]byte, 8*400)
	for r := range bufs {
		bufs[r] = make([]byte, pfs.TotalBytes(rs.List(r)))
		for i := range bufs[r] {
			bufs[r][i] = byte((r*131 + i*7 + 3) % 251)
		}
		copy(oracle[r*400:], bufs[r])
	}
	if err := collio.ExecIndependent(ctx, rs, bufs, file, collio.Write, chk); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(oracle))
	if _, err := file.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oracle) {
		t.Fatal("independent fallback write differs from oracle")
	}
}

// TestFailoverUnderCombinedFaultSchedule is the satellite coverage for
// core.Failover under a schedule combining NodeCrash, MemCollapse and
// MsgDrop (plus the new corruption kinds): the faulted cost loop must
// complete, count every recovery class, and the remerged plan must tile
// the request union exactly once.
func TestFailoverUnderCombinedFaultSchedule(t *testing.T) {
	params := collio.DefaultParams(128)
	ctx, reqs := degradeCtx(t, 1<<16, params)

	plan, state, err := New().PlanWithState(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(reqs); err != nil {
		t.Fatal(err)
	}
	total := plan.TotalBytes()

	crash := plan.Domains[0].AggNode
	collapse := -1
	for _, d := range plan.Domains {
		if d.AggNode != crash {
			collapse = d.AggNode
			break
		}
	}
	if collapse < 0 {
		collapse = (crash + 1) % ctx.Topo.Nodes()
	}

	var events []faults.Event
	events = append(events,
		faults.Event{Kind: faults.NodeCrash, Time: 1e-5, Node: crash, Target: -1},
		faults.Event{Kind: faults.MemCollapse, Time: 2e-5, Node: collapse, Target: -1, Severity: 0.9})
	for n := 0; n < ctx.Topo.Nodes(); n++ {
		events = append(events, faults.Event{Kind: faults.MsgDrop, Time: 3e-5, Node: n, Target: -1})
	}
	for n := 0; n < ctx.Topo.Nodes(); n++ {
		events = append(events, faults.Event{Kind: faults.MsgBitFlip, Time: 4e-5, Node: n, Target: -1})
	}
	for tgt := 0; tgt < ctx.FS.Targets; tgt++ {
		events = append(events, faults.Event{Kind: faults.TornWrite, Time: 5e-5, Node: -1, Target: tgt})
	}
	fplan := &faults.Plan{
		Spec: faults.Spec{Horizon: 1, DropTimeoutSeconds: 0.005,
			RetryBackoff: 0.001, MaxRetries: 3, DetectSeconds: 0.01},
		Events: events,
	}

	handler := &Failover{State: state, Detect: 0.01}
	rs := collio.NewRequestSet(reqs)
	sh, err := collio.BuildShapeSet(ctx, plan, rs)
	if err != nil {
		t.Fatal(err)
	}
	results, err := collio.CostShape(ctx, plan, sh, rs, []collio.Op{collio.Write}, sim.DefaultOptions(),
		collio.FaultEnv{Injector: faults.NewInjector(fplan), Handler: handler})
	if err != nil {
		t.Fatalf("combined fault schedule did not complete: %v", err)
	}
	res := results[0]
	if res.Failovers == 0 {
		t.Fatal("crash + collapse produced no failovers")
	}
	if res.DroppedMessages == 0 {
		t.Fatal("MsgDrop events consumed no messages")
	}
	if res.CorruptedMessages == 0 {
		t.Fatal("MsgBitFlip events consumed no messages")
	}
	if res.TornWrites == 0 {
		t.Fatal("TornWrite events tore no accesses")
	}
	if res.RecoverySeconds <= 0 {
		t.Fatal("recovery charged no simulated time")
	}

	// Replay the same host faults through the handler directly and check
	// the exactly-once tiling of the remerged plan.
	plan2, state2, err := New().PlanWithState(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	handler2 := &Failover{State: state2, Detect: 0.01}
	for _, hf := range []collio.HostFault{
		{Node: crash, Kind: faults.NodeCrash},
		{Node: collapse, Kind: faults.MemCollapse, Severity: 0.9},
	} {
		var affected []int
		for i, d := range plan2.Domains {
			if d.Bytes > 0 && d.AggNode == hf.Node {
				affected = append(affected, i)
			}
		}
		ras, err := handler2.OnHostFault(ctx, hf, plan2.Domains, affected)
		if err != nil {
			t.Fatal(err)
		}
		if err := collio.ApplyReassignments(plan2.Domains, ras); err != nil {
			t.Fatal(err)
		}
	}
	recovered := plan2.Compact()
	// Validate enforces the tiling invariant: sorted, disjoint, exact
	// coverage of the requests — every byte in exactly one domain.
	if err := recovered.Validate(reqs); err != nil {
		t.Fatalf("remerged plan does not tile exactly once: %v", err)
	}
	var live int64
	for _, d := range recovered.Domains {
		if state2.down[d.AggNode] {
			t.Fatalf("remerged plan aggregates on failed node %d", d.AggNode)
		}
		live += d.Bytes
	}
	if live != total {
		t.Fatalf("remerge leaked bytes: %d != %d", live, total)
	}
}
