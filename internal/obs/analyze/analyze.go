// Package analyze answers the question the raw telemetry cannot: per
// round and per run, is the collective bound by shuffle, file I/O,
// paging, recovery, or the metadata exchange, and by how much? It reads
// the engine's per-round TraceEntry records, which carry every input the
// answer needs, and nothing else.
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
// Two rules do all of it. The per-round rule (Blame.addRound) splits one
// round record. Paging blame is the *excess* time: a phase bound by a
// node whose aggregation buffers page is split into the time the same
// traffic would have taken at full DRAM speed (blamed on the phase) and
// the slowdown (blamed on paging). Injected fault delay inside an I/O
// phase is blamed on recovery, as are recovery rounds. The run-level
// rule (Run.settle) charges what no round record holds: recovery stalls
// (the run's recovery time minus its recovery rounds' time) to recovery,
// and the rest of the wall time (e.g. message-drop timeouts charged as
// flat latency) to other.
package analyze

import (
	"sort"

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

// addRound is the per-round rule: it splits one round record into blame
// phases and accumulates them into b. A recovery round is failure
// handling wholesale. Otherwise the comm phase goes to shuffle (metadata
// for a request exchange) and the io phase to write (read for a read),
// less their paging excess and, for io, the injected fault delay. With
// overlap both phases are rescaled so the round still sums to its wall
// time.
func (b Blame) addRound(e *sim.TraceEntry, overlap bool) {
	if e.Recovery {
		b.add(PhaseRecovery, e.Cost.Time)
		return
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

// BlameFromTrace sums the per-round rule over a run's round records.
// Time charged outside rounds (AddRecoveryLatency, AddLatency) is not in
// the records; Run.Blame adds it. overlap mirrors sim.Options.Overlap.
func BlameFromTrace(entries []sim.TraceEntry, overlap bool) Blame {
	b := Blame{}
	for i := range entries {
		b.addRound(&entries[i], overlap)
	}
	return b
}

// Run is one priced strategy run as blame sees it: its round records and
// the two run-level totals the records cannot hold.
type Run struct {
	Name     string
	Trace    []sim.TraceEntry
	Overlap  bool    // the sim.Options.Overlap the run priced with
	Wall     float64 // simulated wall time, seconds
	Recovery float64 // simulated failure handling: recovery rounds plus stalls
}

// Blame is the run's critical-path blame: its rounds' blame, settled
// against the run's totals, so it sums to Wall.
func (r *Run) Blame() Blame {
	b := BlameFromTrace(r.Trace, r.Overlap)
	r.settle(b)
	return b
}

// settle is the run-level rule. b holds the blame of r's rounds; settle
// charges the recovery stalls, Recovery minus the recovery rounds' time,
// to recovery, and then the wall time b still lacks to other. It returns
// the two amounts charged; float noise below a picosecond is not.
func (r *Run) settle(b Blame) (stall, other float64) {
	stall = r.Recovery
	for i := range r.Trace {
		if r.Trace[i].Recovery {
			stall -= r.Trace[i].Cost.Time
		}
	}
	if stall > 1e-12 {
		b[PhaseRecovery] += stall
	} else {
		stall = 0
	}
	if other = r.Wall - b.Total(); other > 1e-12 {
		b[PhaseOther] += other
	} else {
		other = 0
	}
	return stall, other
}
