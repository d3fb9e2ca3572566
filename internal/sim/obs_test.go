package sim

import (
	"testing"

	"mcio/internal/obs"
	"mcio/internal/sim/pricing"
)

// tracedEngine is testEngine with round tracing on.
func tracedEngine(t *testing.T) *Engine {
	t.Helper()
	opt := DefaultOptions()
	opt.Trace = true
	return testEngine(t, opt)
}

func TestBindingIOBound(t *testing.T) {
	e := tracedEngine(t)
	e.RunAggRound(AggRound{
		Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: 1 << 10, Count: 1}},
		IOOps:    []IOOp{{Target: 3, Node: 1, Bytes: 512 << 20, Requests: 1, Contiguous: true, Write: true}},
	})
	tr := e.TakeTrace()
	if len(tr) != 1 {
		t.Fatalf("got %d trace entries, want 1", len(tr))
	}
	b := tr[0].Binding
	if b.CommBound {
		t.Fatalf("512 MB of storage vs 1 KB of comm classified comm-bound: %v", b)
	}
	if b.IOTarget != 3 {
		t.Fatalf("binding io target = %d, want 3 (%v)", b.IOTarget, b)
	}
	if b.String() == "" {
		t.Fatal("binding renders empty")
	}
}

func TestBindingCommBound(t *testing.T) {
	e := tracedEngine(t)
	e.RunAggRound(AggRound{
		Messages: []AggMessage{{SrcNode: 2, DstNode: 5, Bytes: 512 << 20, Count: 1}},
		IOOps:    []IOOp{{Target: 0, Node: 5, Bytes: 1 << 10, Requests: 1, Contiguous: true, Write: true}},
	})
	b := e.TakeTrace()[0].Binding
	if !b.CommBound {
		t.Fatalf("512 MB of comm vs 1 KB of storage classified io-bound: %v", b)
	}
	if b.CommNode != 2 && b.CommNode != 5 {
		t.Fatalf("binding comm node = %d, want an endpoint of the transfer (%v)", b.CommNode, b)
	}
	if b.CommResource == "" {
		t.Fatalf("comm-bound binding has no resource: %v", b)
	}
}

func TestBindingPagedNodeAttributed(t *testing.T) {
	e := tracedEngine(t)
	// A fully paged aggregator slows everything the destination node
	// touches; the binding must attribute the round to that node (its
	// DRAM or its now-degraded NIC), not to the healthy sender.
	e.SetAggregators([]AggregatorPlacement{{Node: 1, BufferBytes: 1 << 20, PagedSeverity: 1}})
	e.RunAggRound(AggRound{Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: 64 << 20, Count: 1}}})
	b := e.TakeTrace()[0].Binding
	if !b.CommBound || b.CommNode != 1 {
		t.Fatalf("paged destination should bind on node 1, got %v", b)
	}
	if b.CommResource != pricing.BindMem && b.CommResource != pricing.BindNICIn {
		t.Fatalf("paged destination bound by %q, want mem or nic-in", b.CommResource)
	}
}

func TestEngineObserver(t *testing.T) {
	opt := DefaultOptions()
	opt.Trace = true
	e := testEngine(t, opt)
	o := obs.New()
	pid := o.Tracer().PID("test-strategy")
	e.SetObserver(o, pid, obs.L("strategy", "test-strategy"))
	e.SetAggregators([]AggregatorPlacement{
		{Node: 1, BufferBytes: 1 << 20, PagedSeverity: 0.5},
		{Node: 2, BufferBytes: 1 << 20},
	})
	for i := 0; i < 2; i++ {
		e.RunAggRound(AggRound{
			Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: 4 << 20, Count: 1}},
			IOOps:    []IOOp{{Target: 3, Node: 1, Bytes: 8 << 20, Requests: 2, Contiguous: true, Write: true}},
		})
	}

	strat := obs.L("strategy", "test-strategy")
	if got := o.Counter("sim.rounds", strat).Value(); got != 2 {
		t.Fatalf("sim.rounds = %d, want 2", got)
	}
	if got := o.Counter("sim.shuffle_bytes", strat).Value(); got != 2*(4<<20) {
		t.Fatalf("sim.shuffle_bytes = %d, want %d", got, 2*(4<<20))
	}
	if got := o.Counter("pfs.bytes_written", strat, obs.L("ost", "3")).Value(); got != 2*(8<<20) {
		t.Fatalf("pfs.bytes_written{ost=3} = %d, want %d", got, 2*(8<<20))
	}
	if got := o.Counter("net.bytes_out", strat, obs.L("node", "0")).Value(); got != 2*(4<<20) {
		t.Fatalf("net.bytes_out{node=0} = %d, want %d", got, 2*(4<<20))
	}
	if got := o.Counter("memmodel.paging_events", strat, obs.L("node", "1")).Value(); got != 1 {
		t.Fatalf("paging_events{node=1} = %d, want 1", got)
	}
	// The zero-severity aggregator still registers the family.
	if got := o.Counter("memmodel.paging_events", strat, obs.L("node", "2")).Value(); got != 0 {
		t.Fatalf("paging_events{node=2} = %d, want 0", got)
	}

	spans := o.Tracer().Spans()
	if len(spans) == 0 {
		t.Fatal("engine emitted no spans")
	}
	var rounds int
	for _, s := range spans {
		if s.Start < 0 || s.Dur < 0 {
			t.Fatalf("span %q has negative time [%v, +%v]", s.Name, s.Start, s.Dur)
		}
		if s.Name == "round 0" || s.Name == "round 1" {
			rounds++
		}
	}
	if rounds != 2 {
		t.Fatalf("got %d round spans, want 2", rounds)
	}
	// Round 1 starts where round 0's simulated time ended.
	var r0End, r1Start float64
	for _, s := range spans {
		if s.Name == "round 0" {
			r0End = s.Start + s.Dur
		}
		if s.Name == "round 1" {
			r1Start = s.Start
		}
	}
	if r1Start != r0End {
		t.Fatalf("round 1 starts at %v, round 0 ends at %v: spans not on simulated time", r1Start, r0End)
	}
}
