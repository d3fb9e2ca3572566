// Package analyze is the second-generation observability layer: it
// consumes the span tree the simulator emits (and, for lighter callers,
// the engine's per-round TraceEntry records) and answers the question the
// raw telemetry cannot — per round and per run, is the collective bound
// by shuffle, file I/O, paging, recovery, or the metadata exchange, and
// by how much?
//
// The unit of analysis is the critical path. Rounds of one collective
// operation are serial, so the run's critical path is the concatenation
// of the rounds' internal critical paths: without phase overlap a round
// contributes its communication phase followed by its I/O phase; with
// overlap the two phases ran concurrently, so the round's wall time is
// split between them in proportion to their durations (the shadowed
// remainder is not counted twice). Every second of the path is blamed on
// exactly one phase —
// shuffle, metadata, read, write, paging, recovery, or other — so the
// per-phase totals sum to the run's simulated wall time, which is what
// makes the numbers comparable across runs and exportable as a
// flamegraph.
//
// Paging blame is the *excess* time: a phase bound by a node whose
// aggregation buffers page is split into the time the same traffic would
// have taken at full DRAM speed (blamed on the phase) and the slowdown
// (blamed on paging). Injected fault delay inside an I/O phase is blamed
// on recovery, as are recovery rounds and stall spans. Residual wall
// time no span accounts for (e.g. message-drop timeouts charged as flat
// latency) lands in PhaseOther.
package analyze

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mcio/internal/obs"
	"mcio/internal/sim"
)

// The blame phases, in stable display/export order.
const (
	PhaseShuffle  = "shuffle"
	PhaseMetadata = "metadata"
	PhaseRead     = "read"
	PhaseWrite    = "write"
	PhasePaging   = "paging"
	PhaseRecovery = "recovery"
	PhaseOther    = "other"
)

// Phases lists every phase in stable order.
func Phases() []string {
	return []string{PhaseShuffle, PhaseMetadata, PhaseRead, PhaseWrite,
		PhasePaging, PhaseRecovery, PhaseOther}
}

// Blame maps phase name -> seconds on the critical path.
type Blame map[string]float64

// Total sums all phases. Summation runs in sorted key order so the
// result is bit-identical across runs: map iteration order is random,
// and float addition is not associative, so an unordered sum can wobble
// by an ULP between otherwise identical runs — enough to break the
// ledger's byte-determinism guarantee downstream.
func (b Blame) Total() float64 {
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var t float64
	for _, k := range keys {
		t += b[k]
	}
	return t
}

// add accumulates non-negative time; negatives (float noise) are dropped.
func (b Blame) add(phase string, seconds float64) {
	if seconds > 0 {
		b[phase] += seconds
	}
}

// merge adds every phase of o into b.
func (b Blame) merge(o Blame) {
	for k, v := range o {
		b.add(k, v)
	}
}

// Dominant returns the phase with the largest share, breaking ties in
// Phases() order; "" when empty.
func (b Blame) Dominant() string {
	best, bestT := "", 0.0
	for _, p := range Phases() {
		if v := b[p]; v > bestT {
			best, bestT = p, v
		}
	}
	return best
}

// RoundBlame is one round on a run's critical path.
type RoundBlame struct {
	Round    int     // round index parsed from the span name
	Start    float64 // seconds, simulated time
	Dur      float64
	Kind     string // "data", "metadata", "recovery"
	Binding  string // the engine's bottleneck rendering, e.g. "comm node 3 (mem)"
	Bound    string // dominant blame phase of this round
	Recovery bool
	Blame    Blame
}

// TrackSummary is the busy-time rollup of one non-timeline track — a
// per-node shuffle lane or a per-OST storage lane.
type TrackSummary struct {
	TID   int
	Name  string
	Busy  float64 // summed span seconds
	Spans int
	// Utilization is Busy over the process wall time (0 when wall is 0).
	Utilization float64
}

// ProcessAnalysis is the critical-path analysis of one process track —
// one priced strategy run.
type ProcessAnalysis struct {
	PID    int
	Name   string
	Wall   float64 // simulated wall time: latest span end on the track
	Blame  Blame   // per-phase seconds; sums to Wall within float noise
	Rounds []RoundBlame
	Tracks []TrackSummary
}

// Analysis is the per-process critical-path breakdown of one trace.
type Analysis struct {
	Processes []ProcessAnalysis
}

// attr returns the value of key on s, "" when absent.
func attr(s obs.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// attrFrac parses a fraction attribute, clamped to [0, 1].
func attrFrac(s obs.Span, key string) float64 {
	v := attr(s, key)
	if v == "" {
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// end returns the span's end timestamp.
func end(s obs.Span) float64 { return s.Start + s.Dur }

// Analyze computes the critical path with per-phase blame for every
// process in the tracer's span tree. Nil-safe: a nil tracer yields an
// empty analysis.
func Analyze(t *obs.Tracer) *Analysis {
	a := &Analysis{}
	if t == nil {
		return a
	}
	names := t.ProcessNames()
	byPID := map[int][]obs.Span{}
	for _, s := range t.Spans() { // already sorted by (Start, PID, TID, Dur desc)
		byPID[s.PID] = append(byPID[s.PID], s)
	}
	pids := make([]int, 0, len(byPID))
	for pid := range byPID {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		p := analyzeProcess(pid, names[pid], byPID[pid], t)
		a.Processes = append(a.Processes, p)
	}
	return a
}

// analyzeProcess walks one process's spans: round spans and their comm/io
// phase children on the timeline track, recovery stalls between rounds,
// and the per-node/per-OST lanes for the track summary.
func analyzeProcess(pid int, name string, spans []obs.Span, t *obs.Tracer) ProcessAnalysis {
	p := ProcessAnalysis{PID: pid, Name: name, Blame: Blame{}}
	var rounds []RoundBlame
	var phaseSpans []obs.Span // "comm"/"io" spans awaiting assignment
	var covered float64       // wall time accounted to rounds + stalls
	tracks := map[int]*TrackSummary{}
	for _, s := range spans {
		if e := end(s); e > p.Wall {
			p.Wall = e
		}
		if s.TID != sim.TIDTimeline {
			ts := tracks[s.TID]
			if ts == nil {
				ts = &TrackSummary{TID: s.TID, Name: t.ThreadName(pid, s.TID)}
				tracks[s.TID] = ts
			}
			ts.Busy += s.Dur
			ts.Spans++
			continue
		}
		switch {
		case s.Name == "comm" || s.Name == "io":
			phaseSpans = append(phaseSpans, s)
		case strings.HasPrefix(s.Name, "recovery: "):
			p.Blame.add(PhaseRecovery, s.Dur)
			covered += s.Dur
		case strings.HasPrefix(s.Name, "round ") || strings.HasPrefix(s.Name, "recovery round "):
			rb := RoundBlame{
				Start:    s.Start,
				Dur:      s.Dur,
				Binding:  attr(s, "binding"),
				Kind:     attr(s, "kind"),
				Recovery: strings.HasPrefix(s.Name, "recovery round "),
				Blame:    Blame{},
			}
			rb.Round, _ = strconv.Atoi(s.Name[strings.LastIndexByte(s.Name, ' ')+1:])
			rounds = append(rounds, rb)
			covered += s.Dur
		}
	}

	// Assign each phase span to the round containing it (rounds are
	// disjoint and sorted by start; phase spans arrive in start order).
	for _, s := range phaseSpans {
		i := sort.Search(len(rounds), func(i int) bool {
			return rounds[i].Start+rounds[i].Dur >= end(s)
		})
		if i >= len(rounds) || s.Start < rounds[i].Start-1e-12 {
			continue // orphan phase span; its round was not traced
		}
		blamePhase(&rounds[i], s)
	}
	for i := range rounds {
		finishRound(&rounds[i])
		p.Blame.merge(rounds[i].Blame)
	}
	p.Rounds = rounds

	// Wall time no round or stall covers (flat latency charges such as
	// message-drop timeouts) is real critical-path time with no span of
	// its own: report it rather than silently shrinking the total.
	if gap := p.Wall - covered; gap > 1e-12 {
		p.Blame.add(PhaseOther, gap)
	}

	tids := make([]int, 0, len(tracks))
	for tid := range tracks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		ts := tracks[tid]
		if p.Wall > 0 {
			ts.Utilization = ts.Busy / p.Wall
		}
		p.Tracks = append(p.Tracks, *ts)
	}
	return p
}

// blamePhase splits one comm/io phase span into blame phases and
// accumulates it into the round.
func blamePhase(rb *RoundBlame, s obs.Span) {
	if rb.Recovery {
		// A recovery round's traffic is failure handling wholesale; the
		// round-level accounting below charges it all to recovery.
		return
	}
	paged := attrFrac(s, "paged_frac") * s.Dur
	delay := attrFrac(s, "delay_frac") * s.Dur
	phase := attr(s, "phase")
	switch s.Name {
	case "comm":
		if phase != PhaseMetadata {
			phase = PhaseShuffle
		}
		rb.Blame.add(PhasePaging, paged)
		rb.Blame.add(phase, s.Dur-paged)
	case "io":
		switch phase {
		case PhaseRead, PhaseWrite:
		default:
			phase = PhaseWrite // "mixed" and unknown default to write
		}
		rb.Blame.add(PhasePaging, paged)
		rb.Blame.add(PhaseRecovery, delay)
		rb.Blame.add(phase, s.Dur-paged-delay)
	}
}

// finishRound reconciles a round's blame with its duration: recovery
// rounds are charged wholly to recovery; overlapped phases are rescaled
// so the shadowed portion is not double-counted; any residual (a round
// with no phase spans, or float noise) lands in PhaseOther. After this,
// rb.Blame.Total() == rb.Dur within float noise.
func finishRound(rb *RoundBlame) {
	if rb.Recovery {
		rb.Blame = Blame{PhaseRecovery: rb.Dur}
		rb.Bound = PhaseRecovery
		return
	}
	total := rb.Blame.Total()
	if total > rb.Dur*(1+1e-9) && total > 0 {
		// Overlapped phases: comm and io ran concurrently and the round
		// lasted max(comm, io). Scale blame down proportionally so the
		// path still sums to wall time while both phases keep their
		// relative shares.
		scale := rb.Dur / total
		for k := range rb.Blame {
			rb.Blame[k] *= scale
		}
	} else if gap := rb.Dur - total; gap > 1e-12 {
		rb.Blame.add(PhaseOther, gap)
	}
	rb.Bound = rb.Blame.Dominant()
}

// BlameFromTrace computes the same per-phase blame from the engine's
// per-round TraceEntry records — the light-weight path for harnesses
// that priced with sim.Options.Trace but did not collect spans. Stall
// latency charged outside rounds (AddRecoveryLatency, AddLatency) is not
// in the entries; callers reconcile against the known wall time with
// Blame.Total(). overlap mirrors sim.Options.Overlap.
func BlameFromTrace(entries []sim.TraceEntry, overlap bool) Blame {
	b := Blame{}
	for _, e := range entries {
		if e.Recovery {
			b.add(PhaseRecovery, e.Cost.Time)
			continue
		}
		comm, io := e.Cost.CommTime, e.Cost.IOTime
		scale := 1.0
		if overlap && comm+io > 0 {
			scale = e.Cost.Time / (comm + io)
		}
		commPhase := PhaseShuffle
		if e.Kind == sim.RoundMetadata {
			commPhase = PhaseMetadata
		}
		paged := e.CommPagedFrac * comm
		b.add(PhasePaging, paged*scale)
		b.add(commPhase, (comm-paged)*scale)
		ioPhase := PhaseWrite
		if e.IODir == "read" {
			ioPhase = PhaseRead
		}
		ioPaged := e.IOPagedFrac * io
		ioDelay := e.IODelayFrac * io
		b.add(PhasePaging, ioPaged*scale)
		b.add(PhaseRecovery, ioDelay*scale)
		b.add(ioPhase, (io-ioPaged-ioDelay)*scale)
	}
	return b
}

// RenderBlame renders one process's per-phase critical-path table.
func (p *ProcessAnalysis) RenderBlame() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path (%s): %.4fs over %d rounds\n", p.Name, p.Wall, len(p.Rounds))
	for _, phase := range Phases() {
		v := p.Blame[phase]
		if v <= 0 {
			continue
		}
		share := 0.0
		if p.Wall > 0 {
			share = v / p.Wall * 100
		}
		fmt.Fprintf(&b, "  %-9s %10.4fs  %5.1f%%\n", phase, v, share)
	}
	return b.String()
}
