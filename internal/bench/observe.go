package bench

import (
	"fmt"
	"sort"
	"strings"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/obs"
	"mcio/internal/obs/analyze"
	"mcio/internal/sim"
	"mcio/internal/twophase"
)

// ObserveResult is one instrumented run of a figure workload: both
// strategies planned and priced with a shared Observer collecting metrics
// and simulated-time spans, plus a human-readable summary.
type ObserveResult struct {
	Obs     *obs.Observer
	Summary string
}

// Observe runs one sweep point of a figure's workload (fig6, fig7 or
// fig8) under full observability: both strategies plan against the same
// machine state, the cost engine prices them with round tracing on, and
// every layer (planner, sim engine, memory model) reports into a fresh
// Observer. The returned observer holds the metrics snapshot and the
// Chrome-traceable spans; the summary prints round counts, elapsed
// simulated time and the per-round bottleneck tally for each strategy.
//
// memMB is the paper-scale mean memory per aggregator; 0 picks 16 MB, a
// point where the baseline pages and the memory-conscious strategy
// adapts — the contrast the trace is for.
func Observe(figure string, scale int64, seed uint64, memMB int, op collio.Op) (*ObserveResult, error) {
	e, err := Lookup(ViewObserve, figure)
	if err != nil {
		return nil, err
	}
	return e.Observe(e, Args{Scale: scale, Seed: seed, MemMB: memMB, Op: op})
}

// observeFigure is the observe view of a figure record.
func observeFigure(e *Experiment, a Args) (*ObserveResult, error) {
	cfg, wl, name, err := e.Figure(a.Scale, a.Seed)
	if err != nil {
		return nil, err
	}
	p, err := newPoint(cfg, wl, name, a.MemMB)
	if err != nil {
		return nil, err
	}
	ctx, rs := p.ctx, p.rs
	ctx.Obs = obs.New()
	opt := p.cfg.options()
	opt.Trace = true

	strategies := []collio.Strategy{twophase.New(), core.New()}
	// The tracer assigns process ids in registration order; registering
	// both strategies up front pins the ids, so the parallel fan-out
	// below exports a byte-identical trace. Within one strategy all spans
	// come from its own goroutine, and same-(PID,TID) spans share a
	// tracer shard, so their order is deterministic too.
	for _, s := range strategies {
		ctx.Obs.Tracer().PID(s.Name())
	}
	summaries := make([]string, len(strategies))
	err = ForEach(len(strategies), func(i int) error {
		s := strategies[i]
		plan, err := s.PlanSet(ctx, rs)
		if err != nil {
			return err
		}
		res, err := collio.CostSet(ctx, plan, rs, a.Op, opt)
		if err != nil {
			return err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s: %d domains, %d rounds, %.4fs simulated (%.1f MB/s)\n",
			s.Name(), len(plan.Domains), len(res.Trace), res.Seconds,
			float64(wl.TotalBytes())/res.Seconds/1e6)
		for _, line := range bindingTally(res.Trace) {
			fmt.Fprintf(&b, "  %s\n", line)
		}
		fmt.Fprintf(&b, "  %s\n", blameLine(res.Trace, res.Seconds, opt.Overlap))
		summaries[i] = b.String()
		return nil
	})
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "observe %s: %s, %s, %d MB per aggregator\n", e.Name, p.name, a.Op, p.memMB)
	for _, s := range summaries {
		b.WriteString(s)
	}
	return &ObserveResult{Obs: ctx.Obs, Summary: b.String()}, nil
}

// blameLine renders a one-line critical-path breakdown of a traced run:
// each phase's share of the simulated wall time, largest first.
func blameLine(tr []sim.TraceEntry, wall float64, overlap bool) string {
	b := analyze.BlameFromTrace(tr, overlap)
	if rest := wall - b.Total(); rest > 1e-12 {
		b[analyze.PhaseOther] += rest
	}
	var parts []string
	for _, phase := range analyze.Phases() {
		v := b[phase]
		if v <= 0 || wall <= 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.1f%%", phase, v/wall*100))
	}
	return "critical path: " + strings.Join(parts, ", ")
}

// bindingTally counts which resource bound each traced round, rendered as
// sorted "bound by X in N rounds" lines.
func bindingTally(tr []sim.TraceEntry) []string {
	counts := map[string]int{}
	for _, e := range tr {
		counts[e.Binding.String()]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("bound by %s in %d round(s)", k, counts[k])
	}
	return out
}
