package sim

import (
	"math"
	"testing"
)

func TestNodeSlowdownScalesRound(t *testing.T) {
	opt := DefaultOptions()
	base := testEngine(t, opt)
	msg := AggRound{Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: 1 << 30, Count: 1}}}
	rc0 := base.RunAggRound(msg)

	slow := testEngine(t, opt)
	slow.SetNodeSlowdown(0, 4)
	rc1 := slow.RunAggRound(msg)
	if rc1.CommTime <= rc0.CommTime {
		t.Fatalf("straggler round not slower: %v vs %v", rc1.CommTime, rc0.CommTime)
	}

	// Clearing the slowdown restores the healthy price.
	slow2 := testEngine(t, opt)
	slow2.SetNodeSlowdown(0, 4)
	slow2.SetNodeSlowdown(0, 1)
	rc2 := slow2.RunAggRound(msg)
	if math.Abs(rc2.CommTime-rc0.CommTime) > 1e-12 {
		t.Fatalf("cleared straggler still priced: %v vs %v", rc2.CommTime, rc0.CommTime)
	}
}

func TestIOOpDelaySeconds(t *testing.T) {
	opt := DefaultOptions()
	op := IOOp{Target: 0, Node: 0, Bytes: 1 << 20, Requests: 1, Contiguous: true, Write: true}
	base := testEngine(t, opt)
	rc0 := base.RunAggRound(AggRound{IOOps: []IOOp{op}})

	delayed := op
	delayed.DelaySeconds = 0.25
	e := testEngine(t, opt)
	rc1 := e.RunAggRound(AggRound{IOOps: []IOOp{delayed}})
	if got := rc1.IOTime - rc0.IOTime; math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("delay charged %v, want 0.25", got)
	}
}

func TestRecoveryAttribution(t *testing.T) {
	opt := DefaultOptions()
	opt.Trace = true
	e := testEngine(t, opt)
	e.RunAggRound(AggRound{Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: 1 << 20, Count: 1}}})
	rc := e.RunAggRecoveryRound(AggRound{Messages: []AggMessage{{SrcNode: 1, DstNode: 2, Bytes: 1 << 16, Count: 1}}})
	e.AddRecoveryLatency(0.5, "detect")

	tot := e.Totals()
	if tot.RecoveryRounds != 1 {
		t.Fatalf("RecoveryRounds = %d, want 1", tot.RecoveryRounds)
	}
	want := rc.Time + 0.5
	if math.Abs(tot.RecoverySeconds-want) > 1e-12 {
		t.Fatalf("RecoverySeconds = %v, want %v", tot.RecoverySeconds, want)
	}
	tr := e.TakeTrace()
	if len(tr) != 2 || tr[0].Recovery || !tr[1].Recovery {
		t.Fatalf("trace recovery flags wrong: %+v", tr)
	}
	if tot.RecoverySeconds >= tot.Time {
		t.Fatalf("recovery time %v must be a strict part of total %v", tot.RecoverySeconds, tot.Time)
	}
}

func TestSetNodePaged(t *testing.T) {
	opt := DefaultOptions()
	msg := AggRound{Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: 1 << 30, Count: 1}}}
	base := testEngine(t, opt)
	rc0 := base.RunAggRound(msg)

	e := testEngine(t, opt)
	e.SetNodePaged(0, 0.8)
	rc1 := e.RunAggRound(msg)
	if rc1.CommTime <= rc0.CommTime {
		t.Fatalf("paged node not slower: %v vs %v", rc1.CommTime, rc0.CommTime)
	}
	// Zero-severity update is inert.
	e2 := testEngine(t, opt)
	e2.SetNodePaged(0, 0)
	rc2 := e2.RunAggRound(msg)
	if rc2.CommTime != rc0.CommTime {
		t.Fatalf("zero-severity SetNodePaged changed pricing: %v vs %v", rc2.CommTime, rc0.CommTime)
	}
}
