package bench

import (
	"fmt"
	"strings"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/obs/timeline"
)

// ProfileResult is one time-resolved profiling run: the recorder
// holding every utilization series and journal event, the saturation
// analysis over it, and a text summary.
type ProfileResult struct {
	Rec     *timeline.Recorder
	Sat     *timeline.SatReport
	Summary string
}

// Profile runs one experiment with a timeline recorder attached and
// analyzes the result. The figure experiments (fig6, fig7, fig8) price
// the memory-conscious strategy on the figure's workload — one clean
// run, profiled down to per-OST, per-NIC and per-node utilization.
// "gray" runs the pinned gray-failure duel instead: the recorder
// rides the adaptive run, so the report shows the OSTSlowdown onset,
// the suspicion crossing and the breaker reaction on one timeline.
//
// tick is the initial sample tick in simulated seconds (0 picks the
// recorder default); memMB as in Observe. Deterministic: the same
// arguments always produce a byte-identical recorder, so reports
// built from it diff clean across reruns.
func Profile(name string, scale int64, seed uint64, memMB int, op collio.Op, tick float64) (*ProfileResult, error) {
	e, err := Lookup(ViewProfile, name)
	if err != nil {
		return nil, err
	}
	rec := timeline.NewRecorder(tick, 0)
	var summary strings.Builder
	if err := e.Profile(e, rec, Args{Scale: scale, Seed: seed, MemMB: memMB, Op: op}, &summary); err != nil {
		return nil, err
	}
	sat := timeline.Analyze(rec)
	summary.WriteString(sat.Render())
	lags := timeline.DetectionLags(rec.J().Events())
	for _, l := range lags {
		fmt.Fprintf(&summary, "detection lag %s: onset %.4gs", l.Entity, l.Onset)
		if s := l.OnsetToSuspect(); s >= 0 {
			fmt.Fprintf(&summary, ", suspect +%.4gs", s)
		}
		if r := l.OnsetToReact(); r >= 0 {
			fmt.Fprintf(&summary, ", reaction +%.4gs", r)
		}
		summary.WriteString("\n")
	}
	return &ProfileResult{Rec: rec, Sat: sat, Summary: summary.String()}, nil
}

// profileFigure prices the memory-conscious strategy on one figure
// workload with the recorder attached. Only one strategy runs: a
// timeline is a per-run artifact, and the memory-conscious run is the
// one whose saturation behavior the paper's placement reasons about.
func profileFigure(e *Experiment, rec *timeline.Recorder, a Args, summary *strings.Builder) error {
	cfg, wl, name, err := e.Figure(a.Scale, a.Seed)
	if err != nil {
		return err
	}
	p, err := newPoint(cfg, wl, name, a.MemMB)
	if err != nil {
		return err
	}
	p.ctx.Timeline = rec
	opt := p.cfg.options()

	s := core.New()
	plan, err := s.PlanSet(p.ctx, p.rs)
	if err != nil {
		return err
	}
	res, err := collio.CostSet(p.ctx, plan, p.rs, a.Op, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(summary, "profile %s: %s, %s, %d MB per aggregator\n", e.Name, p.name, a.Op, p.memMB)
	fmt.Fprintf(summary, "%s: %d domains, %.4fs simulated (%.1f MB/s)\n",
		s.Name(), len(plan.Domains), res.Seconds,
		float64(p.wl.TotalBytes())/res.Seconds/1e6)
	return nil
}

// profileGray runs the pinned gray-failure duel with the recorder on
// the adaptive run. Duel violations surface in the summary rather than
// as errors — a profile of a failing duel is more useful than no
// profile.
func profileGray(_ *Experiment, rec *timeline.Recorder, _ Args, summary *strings.Builder) error {
	rep := &GrayReport{}
	fail := func(op int, format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}
	if err := grayDuel(rep, fail, rec); err != nil {
		return err
	}
	rec.SetMeta("experiment", "gray-duel")
	fmt.Fprintf(summary, "profile gray: pinned duel, static %.4fs vs adaptive %.4fs\n",
		rep.DuelStaticSeconds, rep.DuelAdaptiveSeconds)
	fmt.Fprintf(summary, "duel detection lag: onset->suspect %.4fs, onset->reaction %.4fs\n",
		rep.DuelOnsetToSuspectSeconds, rep.DuelOnsetToReactionSeconds)
	for _, v := range rep.Violations {
		fmt.Fprintf(summary, "violation: %s\n", v)
	}
	return nil
}
