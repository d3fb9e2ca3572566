package bench

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"mcio/internal/cliutil"
	"mcio/internal/collio"
	"mcio/internal/obs"
	"mcio/internal/obs/analyze"
)

// LedgerExperiments lists every experiment Ledger can run, in display
// order — the single source of truth for the CLI's usage text.
var LedgerExperiments = []string{"fig6", "fig7", "fig8", "fig-exa", "fig-exa-faults", "trajectory", "faults", "chaos", "chaos-gray"}

// chaosLedgerOps is the campaign length of the chaos ledger run: long
// enough that detection/repair/degradation counts are meaningful, short
// enough for the CI gate.
const chaosLedgerOps = 50

// grayLedgerOps is the campaign length of the gray ledger run: each op
// prices three cost runs and executes two real hedged collectives, so
// it is shorter than the corruption soak for the same CI budget.
const grayLedgerOps = 20

// Ledger runs one experiment and returns its run ledger — the stable
// obs.RunRecord that `mcio bench -out` writes and `mcio diff` compares.
// Supported experiments: fig6, fig7, fig8 (the bandwidth sweeps),
// trajectory (Table 1 interpolation) and faults (the resilience sweep).
// Every entry carries bandwidth, simulated wall time, round count and
// the critical-path blame breakdown, so a ledger diff can say not just
// "fig6 got slower" but "its paging share doubled".
func Ledger(name string, scale int64, seed uint64) (*obs.RunRecord, error) {
	rec := &obs.RunRecord{
		Name: name,
		Params: map[string]string{
			"scale": strconv.FormatInt(scale, 10),
			"seed":  strconv.FormatUint(seed, 10),
		},
	}
	switch name {
	case "fig6", "fig7", "fig8", "fig-exa":
		var (
			series *Series
			err    error
		)
		switch name {
		case "fig6":
			series, err = Fig6(scale, seed)
		case "fig7":
			series, err = Fig7(scale, seed)
		case "fig8":
			series, err = Fig8(scale, seed)
		default:
			series, err = FigExa(scale, seed)
		}
		if err != nil {
			return nil, err
		}
		// Trend matches series across archived records by entry name, so
		// experiments sharing one history directory need distinct names
		// (the chaos/gray convention). fig-exa gets a prefix; fig6 keeps
		// its legacy bare names, pinned by the committed baselines.
		prefix := ""
		if name == "fig-exa" {
			prefix = "fig-exa/"
		}
		for _, p := range series.Points {
			e := sweepEntry(p, series.Config.Overlap)
			e.Name = prefix + e.Name
			rec.Entries = append(rec.Entries, e)
		}
	case "trajectory":
		points, err := trajectoryRun(scale, seed)
		if err != nil {
			return nil, err
		}
		for _, pt := range points {
			for _, strategy := range []string{"two-phase", "memory-conscious"} {
				res := pt.Results[strategy]
				e := costEntry(fmt.Sprintf("t=%.2f/%s", pt.T, strategy), res, pt.Overlap)
				e.Metrics["mem_per_core_bytes"] = float64(pt.MemPerCore)
				rec.Entries = append(rec.Entries, e)
			}
		}
	case "faults":
		points, err := faultSweepRun(scale, seed)
		if err != nil {
			return nil, err
		}
		for _, pt := range points {
			e := costEntry(fmt.Sprintf("rate=%g/%s", pt.Rate, pt.Strategy), &pt.Res.CostResult, pt.Overlap)
			// Recovery the trace cannot see (detection stalls, reboot
			// waits) tops up the blame; totals keep summing to wall time.
			topUpRecovery(e.Blame, pt.Res.RecoverySeconds)
			e.Metrics["failovers"] = float64(pt.Res.Failovers)
			e.Metrics["stalls"] = float64(pt.Res.Stalls)
			e.Metrics["replayed_rounds"] = float64(pt.Res.ReplayedRounds)
			e.Metrics["recovery_seconds"] = pt.Res.RecoverySeconds
			rec.Entries = append(rec.Entries, e)
		}
	case "fig-exa-faults":
		points, err := figExaFaultsRun(scale, seed)
		if err != nil {
			return nil, err
		}
		for _, pt := range points {
			e := costEntry(fmt.Sprintf("fig-exa-faults/crash=%g,strag=%g,sev=%g/%s",
				pt.Cell.Crash, pt.Cell.Frac, pt.Cell.Sev, pt.Strategy), &pt.Res.CostResult, pt.Overlap)
			topUpRecovery(e.Blame, pt.Res.RecoverySeconds)
			e.Metrics["failovers"] = float64(pt.Res.Failovers)
			e.Metrics["stalls"] = float64(pt.Res.Stalls)
			e.Metrics["replayed_rounds"] = float64(pt.Res.ReplayedRounds)
			e.Metrics["recovery_seconds"] = pt.Res.RecoverySeconds
			rec.Entries = append(rec.Entries, e)
		}
	case "chaos":
		rep, err := Chaos(ChaosConfig{Seed: seed, Ops: chaosLedgerOps, Rate: 2, Repair: true})
		if err != nil {
			return nil, err
		}
		rec.Params["ops"] = strconv.Itoa(chaosLedgerOps)
		rec.Params["rate"] = "2"
		rec.Params["repair"] = "true"
		rec.Entries = append(rec.Entries, chaosEntries(rep)...)
	case "chaos-gray":
		rep, err := Gray(GrayConfig{Seed: seed, Ops: grayLedgerOps, Rate: 2, Repair: true})
		if err != nil {
			return nil, err
		}
		rec.Params["ops"] = strconv.Itoa(grayLedgerOps)
		rec.Params["rate"] = "2"
		rec.Params["repair"] = "true"
		rec.Entries = append(rec.Entries, grayEntries(rep)...)
	default:
		return nil, cliutil.UnknownChoice("experiment", name, LedgerExperiments)
	}
	return rec, nil
}

// StampedLedger is Ledger plus provenance: it times the run on the
// host clock, captures allocator telemetry around it via
// runtime.ReadMemStats, and stamps the record with the host metadata
// the perf-history archive keys on. Ledger itself stays a pure function
// of (name, scale, seed) — the parallel byte-identity tests rely on
// that — so everything nondeterministic lives here.
func StampedLedger(name string, scale int64, seed uint64) (*obs.RunRecord, error) {
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rec, err := Ledger(name, scale, seed)
	if err != nil {
		return nil, err
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	rec.UnixNanos = start.UnixNano()
	rec.Host = obs.CaptureHost()
	rec.Telemetry = &obs.Telemetry{
		HostWallSeconds: time.Since(start).Seconds(),
		TotalAllocBytes: after.TotalAlloc - before.TotalAlloc,
		PeakHeapBytes:   after.HeapSys,
	}
	// fig-exa exists to prove pricing at scale is affordable, so its
	// ledger also carries the host-side cost of producing it as a
	// metrics-only entry: the trend gate checks those series over
	// history, turning a slowdown (against like hosts) or an allocation
	// regression into a flagged series.
	// (Metrics do not feed the step-regression diff, so cross-machine
	// wall-clock noise cannot fail the baseline gate.)
	if name == "fig-exa" || name == "fig-exa-faults" {
		rec.Entries = append(rec.Entries, obs.RunEntry{
			Name: name + "/harness",
			Metrics: map[string]float64{
				"host_wall_seconds": rec.Telemetry.HostWallSeconds,
				"total_alloc_bytes": float64(rec.Telemetry.TotalAllocBytes),
			},
		})
	}
	return rec, nil
}

// chaosEntries converts a chaos-campaign report into metrics-only
// ledger entries — detection counts, repair byte totals and the
// degradation-ladder rung counts — so resilience behaviour sits under
// the same trend-over-history gate as the bandwidth sweeps. The trend
// analyzer treats metrics-only entries as "steady": any sustained move
// in either direction is a behavioural shift worth flagging.
func chaosEntries(rep *ChaosReport) []obs.RunEntry {
	return []obs.RunEntry{
		{Name: "chaos/detection", Metrics: map[string]float64{
			"injected_flips": float64(rep.InjectedFlips),
			"injected_torn":  float64(rep.InjectedTorn),
			"detected":       float64(rep.Detected),
			"undetected":     float64(rep.Undetected()),
		}},
		{Name: "chaos/repair", Metrics: map[string]float64{
			"repaired":        float64(rep.Repaired),
			"unrepaired":      float64(rep.Unrepaired),
			"rewritten_bytes": float64(rep.RewrittenBytes),
			"sums_stamped":    float64(rep.SumsStamped),
			"sums_verified":   float64(rep.SumsVerified),
		}},
		{Name: "chaos/degradation", Metrics: map[string]float64{
			"collective_ops":  float64(rep.CollectiveOps),
			"shrunk_ops":      float64(rep.ShrunkOps),
			"independent_ops": float64(rep.IndependentOps),
			"violations":      float64(len(rep.Violations)),
		}},
	}
}

// grayEntries converts a gray-campaign report into metrics-only ledger
// entries — adaptive-policy activity, hedging totals, detection counts
// and the pinned duel's wall times — so gray-failure behaviour is
// drift-checked over history like the bandwidth sweeps.
func grayEntries(rep *GrayReport) []obs.RunEntry {
	return []obs.RunEntry{
		{Name: "gray/adaptive", Metrics: map[string]float64{
			"suspect_events":      float64(rep.SuspectEvents),
			"proactive_failovers": float64(rep.ProactiveFailovers),
			"breaker_opens":       float64(rep.BreakerOpens),
			"breaker_fast_fails":  float64(rep.BreakerFastFails),
			"rung_transitions":    float64(rep.RungTransitions),
		}},
		{Name: "gray/hedging", Metrics: map[string]float64{
			"hedged_messages":     float64(rep.HedgedMessages),
			"hedged_bytes":        float64(rep.HedgedBytes),
			"deduped_bytes":       float64(rep.DedupedBytes),
			"hedged_chunks":       float64(rep.HedgedChunks),
			"deduped_chunk_bytes": float64(rep.DedupedChunkBytes),
		}},
		{Name: "gray/detection", Metrics: map[string]float64{
			"injected":   float64(rep.Injected()),
			"detected":   float64(rep.Detected),
			"undetected": float64(rep.Undetected()),
			"repaired":   float64(rep.Repaired),
			"unrepaired": float64(rep.Unrepaired),
		}},
		{Name: "gray/duel", Metrics: map[string]float64{
			"static_seconds":   rep.DuelStaticSeconds,
			"adaptive_seconds": rep.DuelAdaptiveSeconds,
			"violations":       float64(len(rep.Violations)),
		}},
		{Name: "gray/latency", Metrics: map[string]float64{
			"onset_to_suspect_seconds":  rep.DuelOnsetToSuspectSeconds,
			"onset_to_reaction_seconds": rep.DuelOnsetToReactionSeconds,
		}},
	}
}

// sweepEntry converts one figure sweep point into a ledger entry.
func sweepEntry(p Point, overlap bool) obs.RunEntry {
	e := costEntry(fmt.Sprintf("%s/%s/mem=%d", p.Strategy, p.Op, p.MemMB), p.Result, overlap)
	e.Metrics["paged_aggregators"] = float64(p.Result.PagedAggregators)
	e.Metrics["domains"] = float64(p.Result.Domains)
	return e
}

// costEntry builds the common ledger entry for one priced run: headline
// numbers plus the per-phase critical-path blame from the round trace.
func costEntry(name string, res *collio.CostResult, overlap bool) obs.RunEntry {
	e := obs.RunEntry{
		Name:          name,
		BandwidthMBps: res.Bandwidth / 1e6,
		WallSeconds:   res.Seconds,
		Rounds:        res.Totals.Rounds,
		Metrics:       map[string]float64{},
	}
	if len(res.Trace) > 0 {
		b := analyze.BlameFromTrace(res.Trace, overlap)
		// Whatever wall time the rounds do not cover (e.g. flat recovery
		// latency) lands in "other" so the blame sums to WallSeconds.
		if rest := res.Seconds - b.Total(); rest > 1e-12 {
			b[analyze.PhaseOther] += rest
		}
		e.Blame = map[string]float64(b)
	}
	return e
}

// topUpRecovery moves stall time the round trace cannot attribute from
// "other" into "recovery": recoverySeconds is the run's authoritative
// recovery total. Only time already parked in "other" moves, so the
// blame total is preserved.
func topUpRecovery(blame map[string]float64, recoverySeconds float64) {
	if blame == nil {
		return
	}
	extra := recoverySeconds - blame[analyze.PhaseRecovery]
	if extra <= 0 {
		return
	}
	if other := blame[analyze.PhaseOther]; extra > other {
		extra = other
	}
	blame[analyze.PhaseRecovery] += extra
	blame[analyze.PhaseOther] -= extra
}
