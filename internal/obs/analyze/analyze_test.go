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
	"mcio/internal/obs"
	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// syntheticTracer builds a trace shaped like a faulted engine run: a
// metadata round, a paged data round, a recovery stall, a recovery
// round, and a trailing gap of flat latency no span covers.
func syntheticTracer() *obs.Tracer {
	tr := obs.NewTracer()
	pid := tr.PID("two-phase")
	tr.SetThreadName(pid, sim.TIDTimeline, "rounds")
	tr.SetThreadName(pid, 101, "node 1 shuffle")
	tr.SetThreadName(pid, 200, "ost 0")

	op := tr.Begin(pid, sim.TIDTimeline, "two-phase write", 0)

	// Metadata round: comm only, 1 ms.
	r0 := tr.Begin(pid, sim.TIDTimeline, "round 0", 0, obs.A("kind", "metadata"))
	tr.Begin(pid, sim.TIDTimeline, "comm", 0, obs.A("phase", "metadata")).End(0.001)
	r0.End(0.001)

	// Data round: 2 ms comm half-paged, then 3 ms io with 1/3 delay.
	r1 := tr.Begin(pid, sim.TIDTimeline, "round 1", 0.001, obs.A("kind", "data"))
	c1 := tr.Begin(pid, sim.TIDTimeline, "comm", 0.001,
		obs.A("phase", "shuffle"), obs.A("paged_frac", "0.5"))
	c1.End(0.003)
	io1 := tr.Begin(pid, sim.TIDTimeline, "io", 0.003,
		obs.A("phase", "write"), obs.A("delay_frac", "0.333333333333"))
	io1.End(0.006)
	r1.End(0.006)
	tr.Begin(pid, 101, "shuffle", 0.001).End(0.003)
	tr.Begin(pid, 200, "io", 0.003).End(0.006)

	// Recovery stall then a recovery round.
	tr.Begin(pid, sim.TIDTimeline, "recovery: node-crash", 0.006,
		obs.A("phase", "recovery")).End(0.008)
	r2 := tr.Begin(pid, sim.TIDTimeline, "recovery round 2", 0.008, obs.A("kind", "recovery"))
	tr.Begin(pid, sim.TIDTimeline, "comm", 0.008, obs.A("phase", "shuffle")).End(0.009)
	r2.End(0.009)

	// Flat latency: 1 ms of wall time with no round span.
	op.End(0.010)
	return tr
}

func TestAnalyzeBlame(t *testing.T) {
	a := Analyze(syntheticTracer())
	if len(a.Processes) != 1 {
		t.Fatalf("got %d processes, want 1", len(a.Processes))
	}
	p := process(a, "two-phase")
	if p == nil {
		t.Fatal("process two-phase not found")
	}
	if got, want := p.Wall, 0.010; math.Abs(got-want) > 1e-12 {
		t.Fatalf("wall = %v, want %v", got, want)
	}
	approx := func(phase string, want float64) {
		t.Helper()
		if got := p.Blame[phase]; math.Abs(got-want) > 1e-9 {
			t.Errorf("blame[%s] = %v, want %v", phase, got, want)
		}
	}
	approx(PhaseMetadata, 0.001)
	approx(PhaseShuffle, 0.001)  // data-round comm minus paging
	approx(PhasePaging, 0.001)   // half of the 2 ms comm
	approx(PhaseWrite, 0.002)    // 3 ms io minus 1 ms delay
	approx(PhaseRecovery, 0.004) // 1 ms delay + 2 ms stall + 1 ms recovery round
	approx(PhaseOther, 0.001)    // the uncovered trailing latency
	if got := p.Blame.Total(); math.Abs(got-p.Wall) > 1e-9 {
		t.Fatalf("blame total %v != wall %v", got, p.Wall)
	}
	if len(p.Rounds) != 3 {
		t.Fatalf("got %d rounds, want 3", len(p.Rounds))
	}
	if p.Rounds[1].Bound != PhaseWrite {
		t.Errorf("round 1 bound by %q, want write", p.Rounds[1].Bound)
	}
	if !p.Rounds[2].Recovery || p.Rounds[2].Bound != PhaseRecovery {
		t.Errorf("recovery round not attributed: %+v", p.Rounds[2])
	}
	// Per-round blame sums to the round duration.
	for _, rb := range p.Rounds {
		if math.Abs(rb.Blame.Total()-rb.Dur) > 1e-9 {
			t.Errorf("round %d blame %v != dur %v", rb.Round, rb.Blame.Total(), rb.Dur)
		}
	}
}

func TestAnalyzeTracks(t *testing.T) {
	p := process(Analyze(syntheticTracer()), "two-phase")
	if len(p.Tracks) != 2 {
		t.Fatalf("got %d tracks, want 2: %+v", len(p.Tracks), p.Tracks)
	}
	byName := map[string]TrackSummary{}
	for _, ts := range p.Tracks {
		byName[ts.Name] = ts
	}
	sh := byName["node 1 shuffle"]
	if math.Abs(sh.Busy-0.002) > 1e-12 || sh.Spans != 1 {
		t.Errorf("shuffle lane = %+v, want 2 ms busy, 1 span", sh)
	}
	if math.Abs(sh.Utilization-0.2) > 1e-9 {
		t.Errorf("shuffle utilization = %v, want 0.2", sh.Utilization)
	}
}

func TestAnalyzeOverlapRescales(t *testing.T) {
	tr := obs.NewTracer()
	pid := tr.PID("mc")
	// Overlapped round: comm 2 ms and io 3 ms both start at t=0; the
	// round lasts max = 3 ms. Blame must sum to 3 ms, split 2:3.
	r := tr.Begin(pid, sim.TIDTimeline, "round 0", 0, obs.A("kind", "data"))
	tr.Begin(pid, sim.TIDTimeline, "comm", 0, obs.A("phase", "shuffle")).End(0.002)
	tr.Begin(pid, sim.TIDTimeline, "io", 0, obs.A("phase", "read")).End(0.003)
	r.End(0.003)
	p := process(Analyze(tr), "mc")
	if math.Abs(p.Blame.Total()-0.003) > 1e-9 {
		t.Fatalf("overlap blame total = %v, want 0.003", p.Blame.Total())
	}
	if math.Abs(p.Blame[PhaseShuffle]-0.0012) > 1e-9 || math.Abs(p.Blame[PhaseRead]-0.0018) > 1e-9 {
		t.Fatalf("overlap split = %v, want shuffle 0.0012 / read 0.0018", p.Blame)
	}
}

// engineRun prices a few rounds on a real engine with both the span
// sink and round tracing on, so span-based and trace-based blame can be
// cross-checked.
func engineRun(t *testing.T, overlap bool) (*obs.Observer, []sim.TraceEntry, float64) {
	t.Helper()
	mc := machine.Testbed640()
	mc.Nodes = 8
	ctx := &collio.Context{Machine: mc, FS: pfs.Config{Targets: 4, TargetBW: 300e6, ReqOverhead: 1e-4, NoncontigFactor: 2}}
	opt := sim.DefaultOptions()
	opt.Trace = true
	opt.Overlap = overlap
	e, err := ctx.NewEngine(opt)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	e.SetObserver(o, o.Tracer().PID("probe"))
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
				{Target: 2, Node: 2, Bytes: 4 << 20, Requests: 1, Contiguous: false, Write: true, DelaySeconds: 0.002},
			},
		})
	}
	e.AddRecoveryLatency(0.005, "node-crash")
	e.RunAggRecoveryRound(sim.AggRound{Messages: []sim.AggMessage{{SrcNode: 0, DstNode: 2, Bytes: 1 << 10, Count: 1}}})
	return o, e.TakeTrace(), e.Elapsed()
}

func TestAnalyzeMatchesEngine(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		o, entries, elapsed := engineRun(t, overlap)
		p := process(Analyze(o.Trace), "probe")
		if p == nil {
			t.Fatal("probe process missing")
		}
		if math.Abs(p.Wall-elapsed) > 1e-12 {
			t.Fatalf("overlap=%v: wall %v != engine elapsed %v", overlap, p.Wall, elapsed)
		}
		if math.Abs(p.Blame.Total()-elapsed) > 1e-9*elapsed {
			t.Fatalf("overlap=%v: blame total %v != elapsed %v", overlap, p.Blame.Total(), elapsed)
		}
		for _, phase := range []string{PhaseMetadata, PhaseShuffle, PhaseWrite, PhasePaging, PhaseRecovery} {
			if p.Blame[phase] <= 0 {
				t.Errorf("overlap=%v: phase %s got no blame: %v", overlap, phase, p.Blame)
			}
		}
		// The trace-entry path agrees with the span path on everything the
		// entries can see (stall latency is span-only by contract).
		tb := BlameFromTrace(entries, overlap)
		for _, phase := range Phases() {
			want := p.Blame[phase]
			if phase == PhaseRecovery {
				want -= 0.005 // the AddRecoveryLatency stall
			}
			if phase == PhaseOther {
				continue
			}
			// paged_frac/delay_frac attrs carry 6 significant digits, so
			// the span path is quantized relative to the exact trace path.
			if math.Abs(tb[phase]-want) > 1e-7 {
				t.Errorf("overlap=%v: BlameFromTrace[%s] = %v, span path %v", overlap, phase, tb[phase], want)
			}
		}
	}
}

func TestWriteFlameSumsToWall(t *testing.T) {
	o, _, elapsed := engineRun(t, false)
	a := Analyze(o.Trace)
	var buf bytes.Buffer
	if err := WriteFlame(&buf, a); err != nil {
		t.Fatal(err)
	}
	var totalUS int64
	lines := 0
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
		totalUS += us
	}
	if lines == 0 {
		t.Fatal("flame output empty")
	}
	wallUS := elapsed * 1e6
	if math.Abs(float64(totalUS)-wallUS) > float64(lines)+1 {
		t.Fatalf("flame total %d µs, wall %.3f µs: off by more than rounding", totalUS, wallUS)
	}
}

func TestAnalyzeNil(t *testing.T) {
	if a := Analyze(nil); len(a.Processes) != 0 {
		t.Fatal("nil tracer produced processes")
	}
	if b := BlameFromTrace(nil, false); len(b) != 0 {
		t.Fatal("empty trace produced blame")
	}
}

// process returns the analysis for the named process, or nil.
func process(a *Analysis, name string) *ProcessAnalysis {
	for i := range a.Processes {
		if a.Processes[i].Name == name {
			return &a.Processes[i]
		}
	}
	return nil
}
