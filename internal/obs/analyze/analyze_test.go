package analyze

import (
	"bufio"
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/machine"
	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// syntheticRun is shaped like a faulted engine run: a metadata round, a
// paged data round with injected io delay, a recovery round, 2 ms of
// recovery stall and 1 ms of flat latency no record covers.
func syntheticRun() Run {
	return Run{
		Name: "two-phase",
		Trace: []sim.TraceEntry{
			{Round: 0, Kind: sim.RoundMetadata,
				Cost: sim.RoundCost{CommTime: 0.001, Time: 0.001}},
			// 2 ms comm half-paged, then 3 ms io with 1/3 delay.
			{Round: 1, CommPagedFrac: 0.5, IODelayFrac: 1.0 / 3, IODir: "write",
				Cost: sim.RoundCost{CommTime: 0.002, IOTime: 0.003, Time: 0.005}},
			{Round: 2, Recovery: true,
				Cost: sim.RoundCost{CommTime: 0.001, Time: 0.001}},
		},
		Wall:     0.010,
		Recovery: 0.003, // the recovery round plus the stall
	}
}

func TestAnalyzeBlame(t *testing.T) {
	r := syntheticRun()
	b := r.Blame()
	approx := func(phase string, want float64) {
		t.Helper()
		if got := b[phase]; math.Abs(got-want) > 1e-9 {
			t.Errorf("blame[%s] = %v, want %v", phase, got, want)
		}
	}
	approx(PhaseMetadata, 0.001)
	approx(PhaseShuffle, 0.001)  // data-round comm minus paging
	approx(PhasePaging, 0.001)   // half of the 2 ms comm
	approx(PhaseWrite, 0.002)    // 3 ms io minus 1 ms delay
	approx(PhaseRecovery, 0.004) // 1 ms delay + 1 ms recovery round + 2 ms stall
	approx(PhaseOther, 0.001)    // the uncovered flat latency
	if got := b.Total(); math.Abs(got-r.Wall) > 1e-9 {
		t.Fatalf("blame total %v != wall %v", got, r.Wall)
	}
	// The rounds alone hold everything but the stall and the latency.
	if got, want := BlameFromTrace(r.Trace, false).Total(), 0.007; math.Abs(got-want) > 1e-9 {
		t.Fatalf("round blame total %v, want %v", got, want)
	}
}

func TestAnalyzeOverlapRescales(t *testing.T) {
	// Overlapped round: comm 2 ms and io 3 ms ran concurrently; the round
	// lasts max = 3 ms. Blame must sum to 3 ms, split 2:3.
	r := Run{
		Trace: []sim.TraceEntry{{IODir: "read",
			Cost: sim.RoundCost{CommTime: 0.002, IOTime: 0.003, Time: 0.003}}},
		Overlap: true,
		Wall:    0.003,
	}
	b := r.Blame()
	if math.Abs(b.Total()-0.003) > 1e-9 {
		t.Fatalf("overlap blame total = %v, want 0.003", b.Total())
	}
	if math.Abs(b[PhaseShuffle]-0.0012) > 1e-9 || math.Abs(b[PhaseRead]-0.0018) > 1e-9 {
		t.Fatalf("overlap split = %v, want shuffle 0.0012 / read 0.0018", b)
	}
}

// engineRun prices a few rounds on a real engine with round tracing on:
// a metadata round, paged data rounds with io delay, a recovery stall
// and a recovery round.
func engineRun(t *testing.T, overlap bool) Run {
	t.Helper()
	mc := machine.Testbed640()
	mc.Nodes = 8
	ctx := &collio.Context{Machine: mc, FS: pfs.Config{Targets: 4, StripeUnit: 1 << 20, TargetBW: 300e6, ReqOverhead: 1e-4, NoncontigFactor: 2}}
	opt := sim.DefaultOptions()
	opt.Trace = true
	opt.Overlap = overlap
	e, err := ctx.NewEngine(opt)
	if err != nil {
		t.Fatal(err)
	}
	e.SetAggregators([]sim.AggregatorPlacement{
		{Node: 1, BufferBytes: 8 << 20, PagedSeverity: 0.6},
		{Node: 2, BufferBytes: 8 << 20},
	})
	e.RunAggRound(sim.AggRound{Kind: sim.RoundMetadata, Messages: []sim.AggMessage{
		{SrcNode: 0, DstNode: 1, Bytes: 4 << 10, Count: 1},
		{SrcNode: 3, DstNode: 2, Bytes: 4 << 10, Count: 1},
	}})
	for i := 0; i < 3; i++ {
		e.RunAggRound(sim.AggRound{
			Messages: []sim.AggMessage{
				{SrcNode: 0, DstNode: 1, Bytes: 8 << 20, Count: 1},
				{SrcNode: 3, DstNode: 2, Bytes: 4 << 20, Count: 1},
			},
			IOOps: []sim.IOOp{
				{Target: 1, Node: 1, Bytes: 8 << 20, Requests: 2, Contiguous: true, Write: true},
				{Target: 2, Node: 2, Bytes: 4 << 20, Requests: 1, Contiguous: false, Write: true, DelaySeconds: 0.05},
			},
		})
	}
	e.AddRecoveryLatency(0.005, "node-crash")
	e.RunAggRecoveryRound(sim.AggRound{Messages: []sim.AggMessage{{SrcNode: 0, DstNode: 2, Bytes: 1 << 10, Count: 1}}})
	return Run{Name: "probe", Trace: e.TakeTrace(), Overlap: overlap,
		Wall: e.Elapsed(), Recovery: e.Totals().RecoverySeconds}
}

func TestAnalyzeMatchesEngine(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		r := engineRun(t, overlap)
		b := r.Blame()
		if math.Abs(b.Total()-r.Wall) > 1e-9*r.Wall {
			t.Fatalf("overlap=%v: blame total %v != elapsed %v", overlap, b.Total(), r.Wall)
		}
		for _, phase := range []string{PhaseMetadata, PhaseShuffle, PhaseWrite, PhasePaging, PhaseRecovery} {
			if b[phase] <= 0 {
				t.Errorf("overlap=%v: phase %s got no blame: %v", overlap, phase, b)
			}
		}
		// Recovery is the engine's recovery total (the stall and the
		// recovery round) plus the io delay the rounds recorded.
		delay := BlameFromTrace(r.Trace, overlap)[PhaseRecovery] - r.Trace[len(r.Trace)-1].Cost.Time
		if delay <= 0 {
			t.Fatalf("overlap=%v: no io delay blamed", overlap)
		}
		if got, want := b[PhaseRecovery], r.Recovery+delay; math.Abs(got-want) > 1e-12 {
			t.Errorf("overlap=%v: recovery %v, want %v", overlap, got, want)
		}
		if b[PhaseOther] > 1e-12 {
			t.Errorf("overlap=%v: %v s in other; every second has a record or a stall", overlap, b[PhaseOther])
		}
	}
}

func TestWriteFlameSumsToWall(t *testing.T) {
	r := engineRun(t, false)
	var buf bytes.Buffer
	if err := WriteFlame(&buf, []Run{r}); err != nil {
		t.Fatal(err)
	}
	var totalUS int64
	lines, stalls := 0, 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		lines++
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed collapsed-stack line %q", line)
		}
		stack, val := line[:sp], line[sp+1:]
		if frames := strings.Split(stack, ";"); len(frames) != 3 {
			t.Fatalf("stack %q has %d frames, want 3", stack, len(frames))
		}
		us, err := strconv.ParseInt(val, 10, 64)
		if err != nil || us <= 0 {
			t.Fatalf("bad value %q in line %q", val, line)
		}
		if stack == "probe;stall;recovery" {
			stalls++
			if us != 5000 {
				t.Errorf("stall line %d µs, want the 5000 µs recovery stall", us)
			}
		}
		totalUS += us
	}
	if lines == 0 {
		t.Fatal("flame output empty")
	}
	if stalls != 1 {
		t.Errorf("%d stall lines, want 1", stalls)
	}
	wallUS := r.Wall * 1e6
	if math.Abs(float64(totalUS)-wallUS) > float64(lines)+1 {
		t.Fatalf("flame total %d µs, wall %.3f µs: off by more than rounding", totalUS, wallUS)
	}
}

func TestAnalyzeNil(t *testing.T) {
	if b := BlameFromTrace(nil, false); len(b) != 0 {
		t.Fatal("empty trace produced blame")
	}
	var r Run
	if b := r.Blame(); len(b) != 0 {
		t.Fatalf("empty run produced blame %v", b)
	}
	var buf bytes.Buffer
	if err := WriteFlame(&buf, []Run{r}); err != nil || buf.Len() != 0 {
		t.Fatalf("empty run flame %q, err %v", buf.String(), err)
	}
}
