package bench

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"mcio/internal/collio"
	"mcio/internal/obs"
	"mcio/internal/obs/analyze"
)

// chaosLedgerOps is the campaign length of the chaos ledger run: long
// enough that detection/repair/degradation counts are meaningful, short
// enough for the CI gate.
const chaosLedgerOps = 50

// grayLedgerOps is the campaign length of the gray ledger run: each op
// prices three cost runs and executes two real hedged collectives, so
// it is shorter than the corruption soak for the same CI budget.
const grayLedgerOps = 20

// Ledger runs one experiment of the ledger view (`mcio bench`, see
// Names(ViewLedger)) and returns its run ledger — the stable
// obs.RunRecord that `mcio bench -out` writes and `mcio diff` compares.
// Every priced entry carries bandwidth, simulated wall time, round count
// and the critical-path blame breakdown, so a ledger diff can say not
// just "fig6 got slower" but "its paging share doubled"; the chaos
// campaigns record metrics-only entries.
func Ledger(name string, scale int64, seed uint64) (*obs.RunRecord, error) {
	e, err := Lookup(ViewLedger, name)
	if err != nil {
		return nil, err
	}
	return e.record(scale, seed)
}

// record runs the experiment's ledger view into a fresh run record.
func (e *Experiment) record(scale int64, seed uint64) (*obs.RunRecord, error) {
	rec := &obs.RunRecord{
		Name: e.Name,
		Params: map[string]string{
			"scale": strconv.FormatInt(scale, 10),
			"seed":  strconv.FormatUint(seed, 10),
		},
	}
	if err := e.Ledger(e, rec, Args{Scale: scale, Seed: seed}); err != nil {
		return nil, err
	}
	return rec, nil
}

// ledgerSweep records a figure sweep under bare entry names, pinned for
// fig6-fig8 by the committed baselines.
func ledgerSweep(e *Experiment, rec *obs.RunRecord, a Args) error {
	return appendSweep(e, rec, a, "")
}

// ledgerNamedSweep records a figure sweep under "<name>/" entry names:
// trend matches series across archived records by entry name, so
// experiments sharing one history directory need distinct names.
func ledgerNamedSweep(e *Experiment, rec *obs.RunRecord, a Args) error {
	return appendSweep(e, rec, a, e.Name+"/")
}

func appendSweep(e *Experiment, rec *obs.RunRecord, a Args, prefix string) error {
	series, err := sweep(e.Figure, a.Scale, a.Seed)
	if err != nil {
		return err
	}
	for _, p := range series.Points {
		entry := sweepEntry(p, series.Config.Overlap)
		entry.Name = prefix + entry.Name
		rec.Entries = append(rec.Entries, entry)
	}
	return nil
}

func ledgerTrajectory(_ *Experiment, rec *obs.RunRecord, a Args) error {
	points, err := trajectoryRun(a.Scale, a.Seed)
	if err != nil {
		return err
	}
	for _, pt := range points {
		for _, strategy := range []string{"two-phase", "memory-conscious"} {
			res := pt.Results[strategy]
			e := costEntry(fmt.Sprintf("t=%.2f/%s", pt.T, strategy), res, pt.Overlap)
			e.Metrics["mem_per_core_bytes"] = float64(pt.MemPerCore)
			rec.Entries = append(rec.Entries, e)
		}
	}
	return nil
}

// faultLedger records a fault grid as "<cell>/<strategy>" entries;
// named prefixes them with "<name>/", as ledgerNamedSweep does.
func faultLedger(run func(scale int64, seed uint64) ([]FaultPoint, error), named bool) func(*Experiment, *obs.RunRecord, Args) error {
	return func(e *Experiment, rec *obs.RunRecord, a Args) error {
		points, err := run(a.Scale, a.Seed)
		if err != nil {
			return err
		}
		prefix := ""
		if named {
			prefix = e.Name + "/"
		}
		for _, pt := range points {
			rec.Entries = append(rec.Entries, faultEntry(prefix+pt.cell+"/"+pt.Strategy, pt.Res, pt.Overlap))
		}
		return nil
	}
}

// faultEntry is costEntry for a faulted run, plus its recovery counters.
func faultEntry(name string, res *collio.FaultResult, overlap bool) obs.RunEntry {
	e := costEntry(name, &res.CostResult, overlap)
	// Recovery the trace cannot see (detection stalls, reboot waits)
	// tops up the blame; totals keep summing to wall time.
	topUpRecovery(e.Blame, res.RecoverySeconds)
	e.Metrics["failovers"] = float64(res.Failovers)
	e.Metrics["stalls"] = float64(res.Stalls)
	e.Metrics["replayed_rounds"] = float64(res.ReplayedRounds)
	e.Metrics["recovery_seconds"] = res.RecoverySeconds
	return e
}

func ledgerChaos(_ *Experiment, rec *obs.RunRecord, a Args) error {
	rep, err := Chaos(ChaosConfig{Seed: a.Seed, Ops: chaosLedgerOps, Rate: 2, Repair: true})
	if err != nil {
		return err
	}
	setCampaignParams(rec, chaosLedgerOps)
	rec.Entries = append(rec.Entries, chaosEntries(rep)...)
	return nil
}

func ledgerGray(_ *Experiment, rec *obs.RunRecord, a Args) error {
	rep, err := Gray(ChaosConfig{Seed: a.Seed, Ops: grayLedgerOps, Rate: 2, Repair: true})
	if err != nil {
		return err
	}
	setCampaignParams(rec, grayLedgerOps)
	rec.Entries = append(rec.Entries, grayEntries(rep)...)
	return nil
}

func setCampaignParams(rec *obs.RunRecord, ops int) {
	rec.Params["ops"] = strconv.Itoa(ops)
	rec.Params["rate"] = "2"
	rec.Params["repair"] = "true"
}

// StampedLedger is Ledger plus provenance: it times the run on the
// host clock, captures allocator telemetry around it via
// runtime.ReadMemStats, and stamps the record with the host metadata
// the perf-history archive keys on. Ledger itself stays a pure function
// of (name, scale, seed) — the parallel byte-identity tests rely on
// that — so everything nondeterministic lives here.
func StampedLedger(name string, scale int64, seed uint64) (*obs.RunRecord, error) {
	e, err := Lookup(ViewLedger, name)
	if err != nil {
		return nil, err
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rec, err := e.record(scale, seed)
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
	// ledger (like every HostCost record's) also carries the host-side
	// cost of producing it as a metrics-only /harness entry: the trend
	// gate checks those series over history, turning a slowdown (against
	// like hosts) or an allocation rise into a flagged series. The diff
	// never gates /harness entries, so cross-machine wall-clock noise
	// cannot fail the baseline gate.
	if e.HostCost {
		rec.Entries = append(rec.Entries, obs.RunEntry{
			Name: name + obs.HarnessSuffix,
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
// the same trend-over-history gate as the bandwidth sweeps. They are
// deterministic, so the trend flags any change in them, in either
// direction, like a price.
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
// checked exactly over history like the bandwidth sweeps.
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
		// Whatever wall time the rounds do not cover (e.g. flat recovery
		// latency) lands in "other" so the blame sums to WallSeconds.
		r := analyze.Run{Trace: res.Trace, Overlap: overlap, Wall: res.Seconds}
		e.Blame = map[string]float64(r.Blame())
	}
	return e
}

// topUpRecovery moves stall time the round trace cannot attribute from
// "other" into "recovery": recoverySeconds is the run's authoritative
// recovery total. Only time already parked in "other" moves, so the
// blame total is preserved. Unlike analyze's run-level rule it subtracts
// the io retry delay already blamed on recovery from the stalls, so a run
// that both retries and stalls keeps part of its stall in "other". The
// committed fault ledgers pin this rule, so it changes only with them.
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
