package analyze

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"mcio/internal/sim"
)

// WriteFlame writes the runs' critical paths in collapsed-stack format —
// one "frame;frame;frame value" line per distinct stack, the input of
// flamegraph.pl, inferno, speedscope and friends. Values are integer
// microseconds of simulated critical-path time, so the flamegraph's x
// axis is the run's wall clock and each run's per-phase totals sum
// (within one microsecond per line of rounding) to its simulated wall
// time.
//
// Stacks have three frames: run (strategy), round kind, phase —
//
//	two-phase;data;shuffle 184223
//	two-phase;data;paging 97110
//	two-phase;metadata;metadata 312
//	memory-conscious;recovery;recovery 1044
//
// Rounds group by kind (data, metadata or recovery); the run-level
// residual gets the kinds "stall" (recovery outside recovery rounds) and
// "other" (the rest of the wall time). Lines are emitted in
// deterministic order (run order, then kind by name, then phase) and
// zero-valued stacks are omitted.
func WriteFlame(w io.Writer, runs []Run) error {
	for i := range runs {
		r := &runs[i]
		byKind := map[string]Blame{}
		for j := range r.Trace {
			e := &r.Trace[j]
			kind := roundKind(e)
			if byKind[kind] == nil {
				byKind[kind] = Blame{}
			}
			byKind[kind].addRound(e, r.Overlap)
		}
		stall, other := r.settle(BlameFromTrace(r.Trace, r.Overlap))
		byKind["stall"] = Blame{PhaseRecovery: stall}
		byKind["other"] = Blame{PhaseOther: other}
		kinds := make([]string, 0, len(byKind))
		for k := range byKind {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		name := flameFrame(r.Name)
		for _, kind := range kinds {
			for _, phase := range Phases() {
				us := int64(math.Round(byKind[kind][phase] * 1e6))
				if us <= 0 {
					continue
				}
				if _, err := fmt.Fprintf(w, "%s;%s;%s %d\n", name, kind, phase, us); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// roundKind is the flame frame of a round record: "recovery" for a
// recovery round, else its kind, "data" for a data round.
func roundKind(e *sim.TraceEntry) string {
	switch {
	case e.Recovery:
		return "recovery"
	case e.Kind == sim.RoundData:
		return "data"
	}
	return e.Kind
}

// RenderBlame renders the run's per-phase critical-path table.
func (r *Run) RenderBlame() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path (%s): %.4fs over %d rounds\n", r.Name, r.Wall, len(r.Trace))
	blame := r.Blame()
	for _, phase := range Phases() {
		v := blame[phase]
		if v <= 0 {
			continue
		}
		share := 0.0
		if r.Wall > 0 {
			share = v / r.Wall * 100
		}
		fmt.Fprintf(&b, "  %-9s %10.4fs  %5.1f%%\n", phase, v, share)
	}
	return b.String()
}

// flameFrame sanitizes a frame name: semicolons separate frames and
// spaces separate the stack from its value in the collapsed format.
func flameFrame(s string) string {
	s = strings.ReplaceAll(s, ";", ",")
	return strings.ReplaceAll(s, " ", "_")
}
