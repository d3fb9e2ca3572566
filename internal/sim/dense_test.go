package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"mcio/internal/machine"
)

// denseRound is a round exercising every accumulator: bundled messages
// (inter- and intra-node), one all-to-all exchange over more nodes than
// a small map holds inline, with nodes on both sides, and storage
// accesses. Nodes 3 and 5 carry identical traffic that dominates the
// comm phase, and targets 2 and 6 identical accesses that dominate the
// I/O phase, so both bindings are ties. The exchange spans nodes 6–19,
// past a 16-node machine.
func denseRound(far int) AggRound {
	x := Exchange{
		Srcs: []ExchangeSrc{{Node: far, Bytes: 512, Count: 1}},
		Dsts: []ExchangeDst{{Node: 0, Slots: 1}},
	}
	for n := 0; n < 12; n++ {
		x.Srcs = append(x.Srcs, ExchangeSrc{Node: n + 6, Bytes: int64(n+1) * 1024, Count: n%3 + 1})
		if n%4 != 1 {
			x.Dsts = append(x.Dsts, ExchangeDst{Node: n + 8, Slots: n%2 + 1})
		}
	}
	return AggRound{
		Messages: []AggMessage{
			{SrcNode: 3, DstNode: 5, Bytes: 64 << 20, Count: 4},
			{SrcNode: 5, DstNode: 3, Bytes: 64 << 20, Count: 4},
			{SrcNode: 0, DstNode: 1, Bytes: 1 << 20, Count: 2},
			{SrcNode: 1, DstNode: 1, Bytes: 3 << 20, Count: 3},
			{SrcNode: far, DstNode: 0, Bytes: 2 << 20, Count: 1},
		},
		Exchanges: []Exchange{x},
		IOOps: []IOOp{
			{Target: 2, Node: 3, Bytes: 32 << 20, Requests: 2, Contiguous: true, Write: true},
			{Target: 6, Node: 5, Bytes: 32 << 20, Requests: 2, Contiguous: true, Write: true},
			{Target: 1, Node: 0, Bytes: 1 << 20, Requests: 1, Write: true},
			{Target: 1, Node: far, Bytes: 64 << 10, Requests: 3, Write: true, DelaySeconds: 0.001},
			{Target: 4, Node: 9, Bytes: 0, Requests: 1, Write: true},
		},
	}
}

// shuffled returns r with its messages, exchange entries and accesses
// in a random order. Accesses to one target keep their relative order:
// a target's service time is a float sum, whose order is part of the
// price; every node quantity is an integer sum and takes any order.
func shuffled(r AggRound, rng *rand.Rand) AggRound {
	out := AggRound{Kind: r.Kind, TraceMessages: r.TraceMessages}
	out.Messages = append([]AggMessage(nil), r.Messages...)
	rng.Shuffle(len(out.Messages), func(i, j int) { out.Messages[i], out.Messages[j] = out.Messages[j], out.Messages[i] })
	for _, x := range r.Exchanges {
		y := Exchange{Srcs: append([]ExchangeSrc(nil), x.Srcs...), Dsts: append([]ExchangeDst(nil), x.Dsts...)}
		rng.Shuffle(len(y.Srcs), func(i, j int) { y.Srcs[i], y.Srcs[j] = y.Srcs[j], y.Srcs[i] })
		rng.Shuffle(len(y.Dsts), func(i, j int) { y.Dsts[i], y.Dsts[j] = y.Dsts[j], y.Dsts[i] })
		out.Exchanges = append(out.Exchanges, y)
	}
	queues := map[int][]IOOp{}
	var order []int
	for _, op := range r.IOOps {
		queues[op.Target] = append(queues[op.Target], op)
		order = append(order, op.Target)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, t := range order {
		out.IOOps = append(out.IOOps, queues[t][0])
		queues[t] = queues[t][1:]
	}
	return out
}

func denseEngine(t *testing.T, nodes int) *Engine {
	t.Helper()
	mc := machine.Testbed640()
	mc.Nodes = nodes
	st := StorageParams{Targets: 8, TargetBW: 500e6, ReqOverhead: 0.5e-3, NoncontigFactor: 4}
	opt := DefaultOptions()
	opt.Trace = true
	e, err := NewEngine(mc, st, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// runDense prices three rounds of denseRound (through order) with
// paging, contention, a straggler and a gray target declared, some of
// them on a node past the machine's node count.
func runDense(e *Engine, far int, order func(AggRound) AggRound) ([]RoundCost, []TraceEntry, Totals) {
	e.SetAggregators([]AggregatorPlacement{
		{Node: 3, BufferBytes: 1 << 20, PagedSeverity: 0.25},
		{Node: 5, BufferBytes: 1 << 20, PagedSeverity: 0.25},
		{Node: far, BufferBytes: 1 << 20, PagedSeverity: 0.5},
		{Node: far, BufferBytes: 1 << 20},
	})
	e.SetNodeSlowdown(far, 1.5)
	e.SetNodePaged(9, 0.1)
	e.SetNodePaged(18, 0.2)
	e.SetTargetSlowdown(1, 2)
	var costs []RoundCost
	for i := 0; i < 3; i++ {
		costs = append(costs, e.RunAggRound(order(denseRound(far))))
	}
	return costs, e.Trace(), e.Totals()
}

// Feeding a round's traffic in any order prices it bit-identically: the
// same costs, the same bindings (the lowest node and target win the
// built-in ties) and the same totals, PerNodeShuffle's key set included.
// A node ID past the machine's node count grows the engine's tables and
// prices as if they had been that large from the start.
func TestEngineOrderAndTies(t *testing.T) {
	const far = 100 // past the 16-node machine below
	wantCosts, wantTrace, wantTotals := runDense(denseEngine(t, far+1), far, func(r AggRound) AggRound { return r })
	for i, tr := range wantTrace {
		if tr.Binding.CommNode != 3 || tr.Binding.IOTarget != 2 {
			t.Fatalf("round %d bound by %v, want the tie's lowest IDs: comm node 3, io ost 2", i, tr.Binding)
		}
	}
	wantKeys := []int{0, 1, 3, 5, far} // the messages' endpoints
	for n := 6; n <= 19; n++ {
		wantKeys = append(wantKeys, n) // the exchange's
	}
	if len(wantTotals.PerNodeShuffle) != len(wantKeys) {
		t.Fatalf("PerNodeShuffle = %v, want keys %v", wantTotals.PerNodeShuffle, wantKeys)
	}
	for _, n := range wantKeys {
		if wantTotals.PerNodeShuffle[n] <= 0 {
			t.Fatalf("PerNodeShuffle = %v, want a positive entry for node %d", wantTotals.PerNodeShuffle, n)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		costs, trace, totals := runDense(denseEngine(t, 16), far, func(r AggRound) AggRound { return shuffled(r, rng) })
		if !reflect.DeepEqual(costs, wantCosts) {
			t.Fatalf("trial %d: costs %v, want %v", trial, costs, wantCosts)
		}
		if !reflect.DeepEqual(trace, wantTrace) {
			t.Fatalf("trial %d: trace %+v, want %+v", trial, trace, wantTrace)
		}
		if !reflect.DeepEqual(totals, wantTotals) {
			t.Fatalf("trial %d: totals %+v, want %+v", trial, totals, wantTotals)
		}
	}
}

// Once warmed up, pricing a round allocates nothing: node and target
// state is dense, the round resets only what it touched, and the
// exchange's intra-node split lives in the node table. The round also
// carries stripe spans, priced in place without expanding them.
func TestSteadyStateRoundsAllocateNothing(t *testing.T) {
	e := denseEngine(t, 16)
	e.opt.Trace = false // a trace grows by one entry per round
	r := denseRound(20)
	r.IOOps = append(r.IOOps,
		IOOp{Target: 0, Count: 8, Node: 3, Bytes: 1 << 20, Requests: 1, Contiguous: true, Write: true},
		IOOp{Target: 2, Count: 5, Node: 7, Bytes: 4 << 10, Requests: 2, Write: true, DelaySeconds: 1e-4})
	e.SetAggregators([]AggregatorPlacement{{Node: 3, BufferBytes: 1 << 20, PagedSeverity: 0.5}})
	for i := 0; i < 3; i++ {
		e.RunAggRound(r)
	}
	if n := testing.AllocsPerRun(100, func() { e.RunAggRound(r) }); n != 0 {
		t.Fatalf("RunAggRound allocates %v times per round after warm-up, want 0", n)
	}
}
