package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"mcio/internal/machine"
	"mcio/internal/pfs"
)

// aggregate folds a round of single messages (Count 1 each) into
// per-route bundles: one AggMessage per (src,dst) route with the total
// bytes and the count of its positive-byte messages, and one zero-byte
// bundle per route counting its zero-byte messages, which move nothing
// but show in the trace.
func aggregate(r AggRound) AggRound {
	type route struct {
		src, dst int
		zero     bool
	}
	idx := map[route]int{}
	agg := AggRound{Kind: r.Kind, IOOps: r.IOOps}
	for _, m := range r.Messages {
		k := route{m.SrcNode, m.DstNode, m.Bytes == 0}
		i, ok := idx[k]
		if !ok {
			i = len(agg.Messages)
			idx[k] = i
			agg.Messages = append(agg.Messages, AggMessage{SrcNode: m.SrcNode, DstNode: m.DstNode})
		}
		agg.Messages[i].Bytes += m.Bytes
		agg.Messages[i].Count += m.Count
	}
	return agg
}

// TestRunAggRoundBundlesMatchSingleMessages feeds the same randomized
// traffic to one engine as single point-to-point messages (Count 1
// each) and to a second as per-route bundles, and demands bit-identical
// costs, totals and trace entries — the invariant bundled pricing rests
// on.
func TestRunAggRoundBundlesMatchSingleMessages(t *testing.T) {
	mc := machine.Testbed640()
	st := pfs.Config{StripeUnit: 1 << 20, Targets: 8, TargetBW: 500e6, ReqOverhead: 0.5e-3, NoncontigFactor: 4, ReadBWFactor: 1.25}
	for _, overlap := range []bool{false, true} {
		opt := DefaultOptions()
		opt.Overlap = overlap
		opt.Trace = true
		byteEng, err := NewEngine(mc, st, opt)
		if err != nil {
			t.Fatal(err)
		}
		aggEng, err := NewEngine(mc, st, opt)
		if err != nil {
			t.Fatal(err)
		}
		aggs := []AggregatorPlacement{
			{Node: 0, BufferBytes: 16 << 20, PagedSeverity: 0},
			{Node: 1, BufferBytes: 16 << 20, PagedSeverity: 0.4},
			{Node: 1, BufferBytes: 16 << 20, PagedSeverity: 0.1},
			{Node: 2, BufferBytes: 16 << 20, PagedSeverity: 1},
		}
		byteEng.SetAggregators(aggs)
		aggEng.SetAggregators(aggs)
		for _, e := range []*Engine{byteEng, aggEng} {
			e.SetNodeSlowdown(2, 1.8)
			e.SetTargetSlowdown(3, 2.5)
		}

		rng := rand.New(rand.NewSource(7))
		for round := 0; round < 20; round++ {
			var r AggRound
			if round%5 == 0 {
				r.Kind = RoundMetadata
			}
			nMsgs := rng.Intn(40)
			for i := 0; i < nMsgs; i++ {
				b := int64(rng.Intn(1 << 20))
				if rng.Intn(8) == 0 {
					b = 0 // zero-byte messages are skipped but trace-counted
				}
				r.Messages = append(r.Messages, AggMessage{
					SrcNode: rng.Intn(6), DstNode: rng.Intn(6), Bytes: b, Count: 1,
				})
			}
			if r.Kind == RoundData {
				nOps := rng.Intn(6)
				for i := 0; i < nOps; i++ {
					r.IOOps = append(r.IOOps, IOOp{
						Target:     rng.Intn(st.Targets),
						Node:       rng.Intn(6),
						Bytes:      int64(rng.Intn(4 << 20)),
						Requests:   1 + rng.Intn(5),
						Contiguous: rng.Intn(2) == 0,
						Write:      rng.Intn(2) == 0,
					})
				}
			}
			got := aggEng.RunAggRound(aggregate(r))
			want := byteEng.RunAggRound(r)
			if got != want {
				t.Fatalf("overlap=%v round %d: agg cost %+v != byte cost %+v", overlap, round, got, want)
			}
		}
		if gt, wt := aggEng.Totals(), byteEng.Totals(); !reflect.DeepEqual(gt, wt) {
			t.Fatalf("overlap=%v: totals diverge:\nagg:  %+v\nbyte: %+v", overlap, gt, wt)
		}
		if gt, wt := aggEng.TakeTrace(), byteEng.TakeTrace(); !reflect.DeepEqual(gt, wt) {
			t.Fatalf("overlap=%v: traces diverge", overlap)
		}
	}
}

// mirror returns r run in the opposite direction: each message swapped
// end for end, each access's Write negated.
func mirror(r AggRound) AggRound {
	m := AggRound{Kind: r.Kind, Exchanges: r.Exchanges}
	for _, msg := range r.Messages {
		msg.SrcNode, msg.DstNode = msg.DstNode, msg.SrcNode
		m.Messages = append(m.Messages, msg)
	}
	for _, op := range r.IOOps {
		op.Write = !op.Write
		m.IOOps = append(m.IOOps, op)
	}
	return m
}

// TestMirroredRoundMatchesSwapped feeds randomized rounds to one engine
// through RunAggRoundMirrored and their mirror images to another
// through RunAggRound, and demands bit-identical costs, totals and
// trace entries: a mirrored round is exactly the opposite direction's
// round, and the round itself is left unchanged.
func TestMirroredRoundMatchesSwapped(t *testing.T) {
	mc := machine.Testbed640()
	st := pfs.Config{StripeUnit: 1 << 20, Targets: 8, TargetBW: 500e6, ReqOverhead: 0.5e-3, NoncontigFactor: 4, ReadBWFactor: 1.25}
	opt := DefaultOptions()
	opt.Trace = true
	mirEng, err := NewEngine(mc, st, opt)
	if err != nil {
		t.Fatal(err)
	}
	swapEng, err := NewEngine(mc, st, opt)
	if err != nil {
		t.Fatal(err)
	}
	aggs := []AggregatorPlacement{{Node: 0, BufferBytes: 16 << 20}, {Node: 2, BufferBytes: 16 << 20, PagedSeverity: 0.5}}
	for _, e := range []*Engine{mirEng, swapEng} {
		e.SetAggregators(aggs)
		e.SetNodeSlowdown(1, 1.5)
	}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 30; round++ {
		var r AggRound
		for i := rng.Intn(20); i > 0; i-- {
			r.Messages = append(r.Messages, AggMessage{SrcNode: rng.Intn(5), DstNode: rng.Intn(5),
				Bytes: int64(rng.Intn(1 << 20)), Count: 1 + rng.Intn(3)})
		}
		for i := rng.Intn(6); i > 0; i-- {
			r.IOOps = append(r.IOOps, IOOp{Target: rng.Intn(4), Count: 1 + rng.Intn(4), Node: rng.Intn(5),
				Bytes: int64(rng.Intn(4 << 20)), Requests: 1 + rng.Intn(3), Contiguous: rng.Intn(2) == 0,
				Write: round%3 != 0})
		}
		before := mirror(mirror(r))
		got, want := mirEng.RunAggRoundMirrored(r), swapEng.RunAggRound(mirror(r))
		if got != want {
			t.Fatalf("round %d: mirrored cost %+v, swapped cost %+v", round, got, want)
		}
		if !reflect.DeepEqual(r, before) {
			t.Fatalf("round %d: pricing a mirrored round changed it", round)
		}
	}
	if g, w := mirEng.Totals(), swapEng.Totals(); !reflect.DeepEqual(g, w) {
		t.Fatalf("totals diverge:\nmirrored: %+v\nswapped:  %+v", g, w)
	}
	if g, w := mirEng.TakeTrace(), swapEng.TakeTrace(); !reflect.DeepEqual(g, w) {
		t.Fatal("traces diverge")
	}
}

// TestAccExchangeMatchesMessages expands randomized all-to-all bundles
// into their constituent per-rank messages (Count 1 each) and demands
// that an Exchange prices bit-identically to the dense message form —
// including sources that are themselves destination nodes (intra-node
// deliveries).
func TestAccExchangeMatchesMessages(t *testing.T) {
	mc := machine.Testbed640()
	st := pfs.Config{StripeUnit: 1 << 20, Targets: 4, TargetBW: 500e6, ReqOverhead: 0.5e-3, NoncontigFactor: 4, ReadBWFactor: 1.25}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 50; trial++ {
		opt := DefaultOptions()
		opt.Overlap = trial%2 == 0
		opt.Trace = true
		byteEng, err := NewEngine(mc, st, opt)
		if err != nil {
			t.Fatal(err)
		}
		exEng, err := NewEngine(mc, st, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Random exchange: a handful of source nodes, each with 1-3
		// sending ranks, and destination slots that overlap the sources.
		var x Exchange
		var msgs AggRound
		msgs.Kind = RoundMetadata
		nSrc := 1 + rng.Intn(5)
		nDst := 1 + rng.Intn(4)
		for d := 0; d < nDst; d++ {
			x.Dsts = append(x.Dsts, ExchangeDst{Node: rng.Intn(6), Slots: rng.Intn(3)})
		}
		for s := 0; s < nSrc; s++ {
			node := rng.Intn(6)
			ranks := 1 + rng.Intn(3)
			var bytes int64
			perRank := make([]int64, ranks)
			for i := range perRank {
				perRank[i] = int64(1 + rng.Intn(4096))
				bytes += perRank[i]
			}
			x.Srcs = append(x.Srcs, ExchangeSrc{Node: node, Bytes: bytes, Count: ranks})
			for _, d := range x.Dsts {
				for s := 0; s < d.Slots; s++ {
					for _, b := range perRank {
						msgs.Messages = append(msgs.Messages, AggMessage{SrcNode: node, DstNode: d.Node, Bytes: b, Count: 1})
					}
				}
			}
		}
		want := byteEng.RunAggRound(msgs)
		got := exEng.RunAggRound(AggRound{Kind: RoundMetadata, Exchanges: []Exchange{x}})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: round costs diverge\nexchange: %+v\nmessages: %+v", trial, got, want)
		}
		if !reflect.DeepEqual(exEng.Totals(), byteEng.Totals()) {
			t.Fatalf("trial %d: totals diverge\nexchange: %+v\nmessages: %+v", trial, exEng.Totals(), byteEng.Totals())
		}
		if !reflect.DeepEqual(exEng.TakeTrace(), byteEng.TakeTrace()) {
			t.Fatalf("trial %d: traces diverge", trial)
		}
	}
}

// TestAggRecoveryRoundAccounting pins the recovery attribution faulted
// pricing relies on: RunAggRecoveryRound prices exactly like
// RunAggRound and additionally books the round's time as recovery;
// AddRecoveryLatency charges wall time and recovery time together.
func TestAggRecoveryRoundAccounting(t *testing.T) {
	mc := machine.Testbed640()
	st := pfs.Config{StripeUnit: 1 << 20, Targets: 4, TargetBW: 500e6, ReqOverhead: 0.5e-3, NoncontigFactor: 4, ReadBWFactor: 1.25}
	newEng := func() *Engine {
		e, err := NewEngine(mc, st, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		e.SetAggregators([]AggregatorPlacement{{Node: 0, BufferBytes: 8 << 20}})
		return e
	}
	round := AggRound{Kind: RoundMetadata, Messages: []AggMessage{
		{SrcNode: 1, DstNode: 0, Bytes: 3 << 20, Count: 12},
		{SrcNode: 2, DstNode: 0, Bytes: 1 << 20, Count: 4},
	}}

	plain, recov := newEng(), newEng()
	pc := plain.RunAggRound(round)
	rc := recov.RunAggRecoveryRound(round)
	if pc != rc {
		t.Fatalf("recovery attribution changed the price: %+v vs %+v", pc, rc)
	}
	pt, rt := plain.Totals(), recov.Totals()
	if pt.RecoveryRounds != 0 || pt.RecoverySeconds != 0 {
		t.Fatalf("plain round booked recovery: %+v", pt)
	}
	if rt.RecoveryRounds != 1 || rt.RecoverySeconds != rc.Time {
		t.Fatalf("recovery round misbooked: rounds=%d seconds=%v (round time %v)",
			rt.RecoveryRounds, rt.RecoverySeconds, rc.Time)
	}
	if rt.Time != pt.Time {
		t.Fatalf("wall time diverged: %v vs %v", rt.Time, pt.Time)
	}

	recov.AddRecoveryLatency(0.25, "detect")
	after := recov.Totals()
	if after.RecoverySeconds != rt.RecoverySeconds+0.25 || after.Time != rt.Time+0.25 {
		t.Fatalf("AddRecoveryLatency misbooked: %+v", after)
	}
}
