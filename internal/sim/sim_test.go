package sim

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"mcio/internal/machine"
	"mcio/internal/pfs"
)

func testEngine(t *testing.T, opt Options) *Engine {
	t.Helper()
	mc := machine.Testbed640()
	mc.Nodes = 16
	mc.NetLatency = 0 // most tests want pure bandwidth algebra
	st := pfs.Config{StripeUnit: 1 << 20, Targets: 8, TargetBW: 500e6, ReqOverhead: 0, NoncontigFactor: 4}
	e, err := NewEngine(mc, st, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidates(t *testing.T) {
	mc := machine.Testbed640()
	good := pfs.Config{Targets: 1, StripeUnit: 1, TargetBW: 1, ReqOverhead: 0, NoncontigFactor: 1}
	if _, err := NewEngine(mc, good, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	bads := []pfs.Config{
		{Targets: 0, StripeUnit: 1, TargetBW: 1, NoncontigFactor: 1},
		{Targets: 1, StripeUnit: 0, TargetBW: 1, NoncontigFactor: 1},
		{Targets: 1, StripeUnit: 1, TargetBW: 0, NoncontigFactor: 1},
		{Targets: 1, StripeUnit: 1, TargetBW: 1, ReqOverhead: -1, NoncontigFactor: 1},
		{Targets: 1, StripeUnit: 1, TargetBW: 1, NoncontigFactor: 0.5},
		{Targets: 1, StripeUnit: 1, TargetBW: 1, NoncontigFactor: 1, ReadBWFactor: -1},
	}
	for i, fs := range bads {
		if _, err := NewEngine(mc, fs, DefaultOptions()); err == nil {
			t.Errorf("bad file-system config %d accepted", i)
		}
	}
	badOpts := []Options{
		{NahOpt: 0},
		{NahOpt: -1},
	}
	for i, o := range badOpts {
		if _, err := NewEngine(mc, good, o); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
	mc.Nodes = 0
	if _, err := NewEngine(mc, good, DefaultOptions()); err == nil {
		t.Error("bad machine accepted")
	}
}

func TestSingleMessageCost(t *testing.T) {
	e := testEngine(t, DefaultOptions())
	const bytes = 1 << 30
	rc := e.RunAggRound(AggRound{Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: bytes, Count: 1}}})
	// NIC at 2 GB/s is the bottleneck vs 25 GB/s DRAM with factor 2.
	wantNIC := float64(bytes) / (2 * float64(machine.GB))
	if math.Abs(rc.CommTime-wantNIC) > 1e-9 {
		t.Fatalf("comm time = %v, want %v (NIC bound)", rc.CommTime, wantNIC)
	}
	if rc.IOTime != 0 {
		t.Fatalf("io time = %v, want 0", rc.IOTime)
	}
}

func TestIntraNodeMessageSkipsNIC(t *testing.T) {
	e := testEngine(t, DefaultOptions())
	const bytes = 1 << 30
	rc := e.RunAggRound(AggRound{Messages: []AggMessage{{SrcNode: 3, DstNode: 3, Bytes: bytes, Count: 1}}})
	// Intra-node: 2*MemCopyFactor crossings at 25 GB/s, no NIC term.
	want := 4 * float64(bytes) / (25 * float64(machine.GB))
	if math.Abs(rc.CommTime-want) > 1e-9 {
		t.Fatalf("intra-node comm = %v, want %v", rc.CommTime, want)
	}
	tot := e.Totals()
	if tot.NetBytes != 0 {
		t.Fatalf("intra-node message counted as network bytes: %d", tot.NetBytes)
	}
	if tot.ShufBytes != bytes {
		t.Fatalf("shuffle bytes = %d, want %d", tot.ShufBytes, bytes)
	}
}

func TestPagedNodeSlower(t *testing.T) {
	mk := func(severity float64) float64 {
		e := testEngine(t, DefaultOptions())
		e.SetAggregators([]AggregatorPlacement{{Node: 0, BufferBytes: 1 << 20, PagedSeverity: severity}})
		rc := e.RunAggRound(AggRound{Messages: []AggMessage{{SrcNode: 0, DstNode: 0, Bytes: 1 << 30, Count: 1}}})
		return rc.CommTime
	}
	fast, half, slow := mk(0), mk(0.5), mk(1)
	if !(fast < half && half < slow) {
		t.Fatalf("severity not monotone: %v %v %v", fast, half, slow)
	}
	// Fully paged runs the memory path at PagedBandwidthFraction speed.
	frac := machine.Testbed640().PagedBandwidthFraction
	if ratio := slow / fast; math.Abs(ratio-1/frac) > 1e-6 {
		t.Fatalf("paging ratio = %v, want %v", ratio, 1/frac)
	}
	// Severity outside [0,1] clamps rather than exploding.
	if mk(2) != slow || mk(-1) != fast {
		t.Fatal("severity clamping broken")
	}
}

func TestAggregatorContention(t *testing.T) {
	cost := func(nAggs int) float64 {
		e := testEngine(t, DefaultOptions())
		aggs := make([]AggregatorPlacement, nAggs)
		for i := range aggs {
			aggs[i] = AggregatorPlacement{Node: 0, BufferBytes: 1 << 20}
		}
		e.SetAggregators(aggs)
		rc := e.RunAggRound(AggRound{Messages: []AggMessage{{SrcNode: 0, DstNode: 0, Bytes: 1 << 30, Count: 1}}})
		return rc.CommTime
	}
	atOpt := cost(4) // NahOpt = 4: no contention
	over := cost(8)  // 4 beyond optimum
	if cost(1) != atOpt {
		t.Fatal("below-optimum aggregator counts must not contend")
	}
	want := atOpt * (1 + 0.35*4)
	if math.Abs(over-want) > 1e-9 {
		t.Fatalf("contended cost = %v, want %v", over, want)
	}
}

func TestIOOpCost(t *testing.T) {
	mc := machine.Testbed640()
	mc.NetLatency = 0
	st := pfs.Config{StripeUnit: 1 << 20, Targets: 4, TargetBW: 100e6, ReqOverhead: 0.001, NoncontigFactor: 4}
	e, err := NewEngine(mc, st, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rc := e.RunAggRound(AggRound{IOOps: []IOOp{
		{Target: 0, Node: 0, Bytes: 100e6, Requests: 10, Contiguous: true, Write: true},
	}})
	want := 0.001*10 + 1.0
	if math.Abs(rc.IOTime-want) > 1e-9 {
		t.Fatalf("io time = %v, want %v", rc.IOTime, want)
	}
	// Noncontiguous inflates the streaming term by 4x.
	e2, _ := NewEngine(mc, st, DefaultOptions())
	rc2 := e2.RunAggRound(AggRound{IOOps: []IOOp{
		{Target: 0, Node: 0, Bytes: 100e6, Requests: 10, Contiguous: false, Write: true},
	}})
	want2 := 0.001*10 + 4.0
	if math.Abs(rc2.IOTime-want2) > 1e-9 {
		t.Fatalf("noncontig io time = %v, want %v", rc2.IOTime, want2)
	}
}

func TestTargetsRunInParallel(t *testing.T) {
	e := testEngine(t, DefaultOptions())
	// The same volume on one target vs spread over 4: parallel spread is 4x faster.
	one := e.RunAggRound(AggRound{IOOps: []IOOp{
		{Target: 0, Node: 0, Bytes: 400e6, Requests: 1, Contiguous: true},
	}})
	e2 := testEngine(t, DefaultOptions())
	var ops []IOOp
	for i := 0; i < 4; i++ {
		ops = append(ops, IOOp{Target: i, Node: 0, Bytes: 100e6, Requests: 1, Contiguous: true})
	}
	four := e2.RunAggRound(AggRound{IOOps: ops})
	if math.Abs(four.IOTime*4-one.IOTime) > 1e-9 {
		t.Fatalf("4 targets: %v, 1 target: %v — want 4x speedup", four.IOTime, one.IOTime)
	}
}

func TestOverlapOption(t *testing.T) {
	opt := DefaultOptions()
	round := AggRound{
		Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: 1 << 30, Count: 1}},
		IOOps:    []IOOp{{Target: 0, Node: 2, Bytes: 250e6, Requests: 1, Contiguous: true}},
	}
	blocking := testEngine(t, opt)
	bc := blocking.RunAggRound(round)
	opt.Overlap = true
	overlapped := testEngine(t, opt)
	oc := overlapped.RunAggRound(round)
	if math.Abs(bc.Time-(bc.CommTime+bc.IOTime)) > 1e-12 {
		t.Fatalf("blocking round time %v != comm+io %v", bc.Time, bc.CommTime+bc.IOTime)
	}
	if math.Abs(oc.Time-math.Max(oc.CommTime, oc.IOTime)) > 1e-12 {
		t.Fatalf("overlapped round time %v != max(comm,io)", oc.Time)
	}
	if oc.Time >= bc.Time {
		t.Fatal("overlap should be faster for mixed rounds")
	}
}

func TestLatencyCharge(t *testing.T) {
	mc := machine.Testbed640()
	mc.NetLatency = 1e-3
	st := pfs.Config{StripeUnit: 1 << 20, Targets: 1, TargetBW: 1e9, NoncontigFactor: 1}
	e, err := NewEngine(mc, st, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rc := e.RunAggRound(AggRound{Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: 1, Count: 1}}})
	if rc.CommTime < 1e-3 {
		t.Fatalf("per-message latency not charged: %v", rc.CommTime)
	}
	e.AddLatency(0.5)
	if e.Elapsed() < 0.5 {
		t.Fatalf("AddLatency not accumulated: %v", e.Elapsed())
	}
}

func TestTotalsAccumulate(t *testing.T) {
	e := testEngine(t, DefaultOptions())
	e.RunAggRound(AggRound{
		Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: 100, Count: 1}},
		IOOps:    []IOOp{{Target: 0, Node: 1, Bytes: 200, Requests: 3, Contiguous: true, Write: true}},
	})
	e.RunAggRound(AggRound{Messages: []AggMessage{{SrcNode: 1, DstNode: 0, Bytes: 50, Count: 1}}})
	tot := e.Totals()
	if tot.Rounds != 2 {
		t.Fatalf("rounds = %d", tot.Rounds)
	}
	if tot.NetBytes != 150 || tot.ShufBytes != 150 {
		t.Fatalf("net/shuffle bytes = %d/%d", tot.NetBytes, tot.ShufBytes)
	}
	if tot.IOBytes != 200 || tot.Requests != 3 {
		t.Fatalf("io bytes/requests = %d/%d", tot.IOBytes, tot.Requests)
	}
}

func TestBandwidth(t *testing.T) {
	e := testEngine(t, DefaultOptions())
	if e.Bandwidth(100) != 0 {
		t.Fatal("bandwidth before any round should be 0")
	}
	e.RunAggRound(AggRound{IOOps: []IOOp{{Target: 0, Node: 0, Bytes: 500e6, Requests: 1, Contiguous: true}}})
	bw := e.Bandwidth(500e6)
	want := 500e6 / e.Elapsed()
	if math.Abs(bw-want) > 1e-6 {
		t.Fatalf("bandwidth = %v, want %v", bw, want)
	}
	// The storage target streams at 500 MB/s, so with the NIC/DRAM charges
	// on top the reported bandwidth must be strictly below that.
	if bw >= 500e6 {
		t.Fatalf("bandwidth %v should be below the 500e6 target stream rate", bw)
	}
}

func TestZeroByteWorkIsFree(t *testing.T) {
	e := testEngine(t, DefaultOptions())
	rc := e.RunAggRound(AggRound{
		Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: 0, Count: 1}},
		IOOps:    []IOOp{{Target: 0, Node: 0, Bytes: 0, Requests: 0, Contiguous: true}},
	})
	if rc.Time != 0 {
		t.Fatalf("zero-byte round cost = %v, want 0", rc.Time)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	for name, round := range map[string]AggRound{
		"negative message": {Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: -1, Count: 1}}},
		"negative count":   {Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: 1, Count: -1}}},
		"negative io":      {IOOps: []IOOp{{Target: 0, Bytes: -1}}},
		"bad target":       {IOOps: []IOOp{{Target: 99, Bytes: 1, Requests: 1}}},
	} {
		e := testEngine(t, DefaultOptions())
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			e.RunAggRound(round)
		}()
	}
	e := testEngine(t, DefaultOptions())
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative latency: expected panic")
			}
		}()
		e.AddLatency(-1)
	}()
}

// Property: round time is monotone in message size and always non-negative.
func TestMonotoneInBytes(t *testing.T) {
	err := quick.Check(func(b1Raw, b2Raw uint32) bool {
		b1, b2 := int64(b1Raw), int64(b2Raw)
		if b1 > b2 {
			b1, b2 = b2, b1
		}
		cost := func(b int64) float64 {
			e := testEngine(t, DefaultOptions())
			return e.RunAggRound(AggRound{Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: b, Count: 1}}}).Time
		}
		c1, c2 := cost(b1), cost(b2)
		return c1 >= 0 && c2 >= 0 && c1 <= c2
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTraceRecordsRounds(t *testing.T) {
	opt := DefaultOptions()
	opt.Trace = true
	e := testEngine(t, opt)
	e.RunAggRound(AggRound{
		Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: 100, Count: 1}},
		IOOps:    []IOOp{{Target: 0, Node: 1, Bytes: 200, Requests: 1, Contiguous: true}},
	})
	e.RunAggRound(AggRound{Messages: []AggMessage{{SrcNode: 1, DstNode: 0, Bytes: 50, Count: 1}}})
	tr := e.TakeTrace()
	if len(tr) != 2 {
		t.Fatalf("trace length = %d", len(tr))
	}
	if tr[0].Round != 0 || tr[1].Round != 1 {
		t.Fatal("round numbering")
	}
	if tr[0].Messages != 1 || tr[0].IOOps != 1 || tr[0].CommBytes != 100 || tr[0].IOBytes != 200 {
		t.Fatalf("entry 0 = %+v", tr[0])
	}
	if tr[1].Cost.Time <= 0 {
		t.Fatal("entry cost missing")
	}
}

// A reserved trace records the same rounds as an unreserved one, in
// the reserved capacity, and TakeTrace hands them over, leaving the
// engine a fresh trace.
func TestReserveAndTakeTrace(t *testing.T) {
	opt := DefaultOptions()
	opt.Trace = true
	var traces [2][]TraceEntry
	for i, reserve := range []int{0, 2} {
		e := testEngine(t, opt)
		e.ReserveTrace(reserve)
		e.RunAggRound(AggRound{Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: 100, Count: 1}}})
		e.RunAggRound(AggRound{Messages: []AggMessage{{SrcNode: 1, DstNode: 0, Bytes: 50, Count: 1}}})
		traces[i] = e.TakeTrace()
		if len(e.TakeTrace()) != 0 {
			t.Fatal("the engine kept the trace it handed over")
		}
	}
	got, want := traces[1], traces[0]
	if !reflect.DeepEqual(got, want) || len(got) != 2 || cap(got) != 2 {
		t.Fatalf("reserved trace = %+v (cap %d), want the two rounds of the unreserved one, %+v", got, cap(got), want)
	}
}

func TestTraceOffByDefault(t *testing.T) {
	e := testEngine(t, DefaultOptions())
	e.RunAggRound(AggRound{Messages: []AggMessage{{SrcNode: 0, DstNode: 1, Bytes: 100, Count: 1}}})
	if len(e.TakeTrace()) != 0 {
		t.Fatal("tracing should be off by default")
	}
}
