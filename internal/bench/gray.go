package bench

import (
	"fmt"
	"strings"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/faults"
	"mcio/internal/integrity"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/stats"
)

// graySalt decorrelates the gray campaign's per-op seed stream from the
// corruption soak's, so `chaos gray -seed 1` and `chaos -seed 1` draw
// independent workloads.
const graySalt = 0x677261796661696c // "grayfail"

// GrayReport is the outcome of a gray campaign: what the adaptive
// policy did (suspicion, proactive failover, breakers, hedging), what
// the integrity layer saw, the pinned static-vs-adaptive duel, and
// every invariant violation found (empty Violations is the pass
// condition).
type GrayReport struct {
	Ops int

	// Cost-level adaptive accounting, summed over ops and the duel.
	SuspectEvents      int
	ProactiveFailovers int
	BreakerOpens       int
	BreakerFastFails   int
	FlakyDrops         int
	LeakedNodes        int
	HedgedMessages     int
	HedgedBytes        int64
	DedupedBytes       int64
	// RungTransitions counts degradation-controller rung changes caused
	// by health state (the initial baseline plan is not counted).
	RungTransitions int

	// The pinned duel: a degrading OST plus a straggling aggregator
	// host on a fixed machine. The adaptive run must be strictly faster.
	DuelStaticSeconds   float64
	DuelAdaptiveSeconds float64
	// Detection-lag decomposition of the duel's slowed OST, from its
	// timeline journal: fault onset → first suspicion crossing → first
	// reaction (breaker open), in simulated seconds. -1 marks a stage
	// that never fired (itself a violation — the duel must detect).
	DuelOnsetToSuspectSeconds  float64
	DuelOnsetToReactionSeconds float64

	// Byte-level hedged-execution accounting.
	corruptionTally
	HedgedChunks      int64
	DedupedChunkBytes int64

	Violations []string
}

// String renders the campaign summary.
func (r *GrayReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gray: %d ops\n", r.Ops)
	fmt.Fprintf(&b, "adaptive: %d suspect events, %d proactive failovers, %d breaker opens, %d fast-fails, %d rung transitions\n",
		r.SuspectEvents, r.ProactiveFailovers, r.BreakerOpens, r.BreakerFastFails, r.RungTransitions)
	fmt.Fprintf(&b, "hedging: %d messages (%d bytes priced, %d deduped), %d real chunks (%d duplicate bytes discarded)\n",
		r.HedgedMessages, r.HedgedBytes, r.DedupedBytes, r.HedgedChunks, r.DedupedChunkBytes)
	fmt.Fprintf(&b, "gray load: %d flaky drops, %d leaked nodes\n", r.FlakyDrops, r.LeakedNodes)
	fmt.Fprintf(&b, "duel: static %.4fs vs adaptive %.4fs\n", r.DuelStaticSeconds, r.DuelAdaptiveSeconds)
	fmt.Fprintf(&b, "duel detection lag: onset->suspect %.4fs, onset->reaction %.4fs\n",
		r.DuelOnsetToSuspectSeconds, r.DuelOnsetToReactionSeconds)
	b.WriteString(r.summary())
	writeInvariants(&b, r.Violations)
	return b.String()
}

// grayAdaptive is the campaign's adaptive policy, with a short hedge
// window so the small per-op workloads cross it. Deterministic — the
// campaign report is a pure function of its config.
func grayAdaptive() *collio.Adaptive {
	ad := collio.NewAdaptive()
	ad.HedgeMinSamples = 8
	return ad
}

// grayCampaign is the chaos view of the gray-failure campaign.
func grayCampaign(c ChaosConfig) (string, bool, error) {
	rep, err := Gray(c)
	if err != nil {
		return "", false, err
	}
	return rep.String(), len(rep.Violations) > 0 || rep.Undetected() > 0, nil
}

// Gray runs a seeded gray-failure campaign (Ops defaults to 20). Every
// operation draws a fresh workload and gray-fault schedule (OST slowdowns, flaky NICs,
// memory leaks) and checks the invariant battery:
//
//   - pricing: the adaptive run moves exactly the user bytes the static
//     run moves — suspicion, breakers and hedging change placement and
//     timing, never payload — and every hedged byte is deduplicated
//     (DedupedBytes == HedgedBytes, the zero-double-count invariant);
//   - health-driven planning: replanning through the degradation
//     controller after the run never fails and still tiles the request
//     union exactly once, with rung transitions recorded;
//   - real bytes: a hedged verified write/read under silent corruption
//     passes the corruption soak's round-trip battery — hedged
//     duplicates are verified and discarded, never written or scattered
//     into user buffers.
//
// The campaign ends with the pinned duel — a degrading OST plus a
// straggling aggregator host — where the adaptive run must be strictly
// faster than the static retry-only baseline. Violations are collected,
// not fatal. The campaign is deterministic: same config, same report.
func Gray(cfg ChaosConfig) (*GrayReport, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 20
	}
	if cfg.Rate < 0 {
		return nil, fmt.Errorf("bench: negative gray fault rate %g", cfg.Rate)
	}

	rep := &GrayReport{Ops: cfg.Ops}

	soak, err := newCorruptionSoak(cfg, "gray", &rep.corruptionTally, &rep.Violations)
	if err != nil {
		return nil, err
	}
	o, fail := soak.o, soak.fail
	s := core.New()

	for op := 0; op < cfg.Ops; op++ {
		opSeed := chaosMix(cfg.Seed^graySalt, op)
		r := stats.NewRNG(opSeed)

		// Machine for this operation: several ranks per node so groups
		// span hosts and a straggling node hurts more than one rank.
		ranks := 6 + r.Intn(7)
		perNode := 2 + r.Intn(2)
		topo, err := mpi.BlockTopology(ranks, perNode)
		if err != nil {
			return nil, err
		}
		ctx := grayContext(topo, int64(1<<(12+r.Intn(3))), o)

		// Cost-level workload: contiguous per-rank regions, big enough
		// that the run spans several rounds of the gray horizon.
		per := int64(1<<14 + r.Intn(1<<15))
		reqs := make([]collio.RankRequest, ranks)
		for i := range reqs {
			reqs[i] = collio.RankRequest{Rank: i,
				Extents: []pfs.Extent{{Offset: int64(i) * per, Length: per}}}
		}

		rs := collio.NewRequestSet(reqs)
		refPlan, err := s.PlanSet(ctx, rs)
		if err != nil {
			fail(op, "planning failed: %v", err)
			continue
		}
		ref, err := collio.CostSet(ctx, refPlan, rs, collio.Write, sim.DefaultOptions())
		if err != nil {
			fail(op, "reference pricing failed: %v", err)
			continue
		}
		horizon := ref.Seconds * 4
		spec := faults.DefaultSpec(opSeed, horizon).WithRate(0).WithGray(cfg.Rate)

		draw := func(*collio.Plan) (*faults.Plan, error) {
			return spec.Generate(topo.Nodes(), ctx.FS.Targets)
		}

		static, err := priceGray(ctx, s, rs, spec.DetectSeconds, nil, draw)
		if err != nil {
			fail(op, "static run failed: %v", err)
			continue
		}
		ad := grayAdaptive()
		// The controller shares the run's detector, so the post-run
		// replan sees exactly the suspicion the priced run raised.
		dc := core.NewDegradationController(s, ad.Detector)
		if _, err := dc.Plan(ctx, reqs); err != nil {
			fail(op, "baseline controller plan failed: %v", err)
			continue
		}
		adaptive, err := priceGray(ctx, s, rs, spec.DetectSeconds, ad, draw)
		if err != nil {
			fail(op, "adaptive run failed: %v", err)
			continue
		}

		// Invariant: policy never changes payload — same user bytes.
		if adaptive.UserBytes != static.UserBytes {
			fail(op, "user bytes diverged: adaptive %d vs static %d",
				adaptive.UserBytes, static.UserBytes)
		}
		// Invariant: zero double-counted hedged bytes — every byte a
		// hedge duplicated was deduplicated.
		if adaptive.DedupedBytes != adaptive.HedgedBytes {
			fail(op, "hedge accounting: %d bytes hedged, %d deduped",
				adaptive.HedgedBytes, adaptive.DedupedBytes)
		}

		// Health-driven replan: masking suspected nodes must still
		// produce a valid tiling (or a lawful independent fallback).
		dp, err := dc.Plan(ctx, reqs)
		if err != nil {
			fail(op, "health-driven replan failed: %v", err)
		} else if !dp.Independent {
			if err := dp.Plan.Validate(reqs); err != nil {
				fail(op, "health-masked plan tiling violated: %v", err)
			}
		}
		rep.RungTransitions += len(dc.Transitions()) - 1

		rep.SuspectEvents += adaptive.SuspectEvents
		rep.ProactiveFailovers += adaptive.ProactiveFailovers
		rep.BreakerOpens += adaptive.BreakerOpens
		rep.BreakerFastFails += adaptive.BreakerFastFails
		rep.FlakyDrops += adaptive.FlakyDrops
		rep.LeakedNodes += adaptive.LeakedNodes
		rep.HedgedMessages += adaptive.HedgedMessages
		rep.HedgedBytes += adaptive.HedgedBytes
		rep.DedupedBytes += adaptive.DedupedBytes

		// Byte-level section: a real hedged write/read of a small
		// permuted-block workload under silent corruption.
		breqs := grayBlocks(r, ranks)
		plan, err := s.Plan(ctx, breqs)
		if err != nil {
			fail(op, "byte-level planning failed: %v", err)
			continue
		}
		if err := plan.Validate(breqs); err != nil {
			fail(op, "byte-level plan tiling violated: %v", err)
			continue
		}
		hed := &collio.Hedger{Seed: int64(opSeed)}
		crep, err := soak.roundTrip(op, opSeed, ctx, breqs, plan.TotalBytes(),
			func(data []collio.RankData, file *pfs.File, dir collio.Op, chk *integrity.Checker, corr *faults.Corrupter) error {
				return collio.ExecVerified(ctx, plan, data, file, dir, chk, corr, hed)
			})
		if err != nil {
			return nil, err
		}
		if crep != nil {
			rep.HedgedChunks += hed.Hedged()
			rep.DedupedChunkBytes += hed.DedupedBytes()
		}
	}

	// Campaign-level engagement check: with repair on, the seeded
	// hedgers must have hedged real chunks somewhere — a silently inert
	// hedge path would otherwise pass every per-op invariant.
	if cfg.Repair && rep.HedgedChunks == 0 {
		fail(-1, "hedged execution never engaged across %d ops", cfg.Ops)
	}

	if err := grayDuel(rep, fail, cfg.Timeline); err != nil {
		return nil, err
	}

	o.Counter("chaos.gray_ops").Add(int64(cfg.Ops))
	o.Counter("chaos.gray_suspect_events").Add(int64(rep.SuspectEvents))
	o.Counter("chaos.gray_proactive_failovers").Add(int64(rep.ProactiveFailovers))
	o.Counter("chaos.gray_hedged_bytes").Add(rep.HedgedBytes)
	o.Counter("chaos.gray_deduped_bytes").Add(rep.DedupedBytes)
	o.Counter("chaos.gray_corruptions_injected").Add(int64(rep.Injected()))
	o.Counter("chaos.gray_corruptions_detected").Add(rep.Detected)
	o.Counter("chaos.invariant_violations").Add(int64(len(rep.Violations)))
	return rep, nil
}

// grayBlocks draws the byte-level workload: a permuted block list dealt
// round-robin to the ranks, with holes.
func grayBlocks(r *stats.RNG, ranks int) []collio.RankRequest {
	blocks := 12 + r.Intn(9)
	blockLen := int64(24 + r.Intn(81))
	reqs := make([]collio.RankRequest, ranks)
	for i := range reqs {
		reqs[i].Rank = i
	}
	for i, b := range r.Perm(blocks) {
		if r.Float64() < 0.1 {
			continue // hole
		}
		ext := pfs.Extent{Offset: int64(b) * blockLen, Length: blockLen}
		reqs[i%ranks].Extents = append(reqs[i%ranks].Extents, ext)
	}
	return reqs
}

// grayContext is the gray machine: one testbed node per topology node
// with all its memory free, and message thresholds scaled to buf.
func grayContext(topo mpi.Topology, buf int64, o *obs.Observer) *collio.Context {
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	params := collio.DefaultParams(buf)
	params.MsgInd = 4 * buf
	params.MsgGroup = 16 * buf
	params.MemMin = buf / 2
	avail := make([]int64, topo.Nodes())
	for i := range avail {
		avail[i] = mc.MemPerNode
	}
	return &collio.Context{Topo: topo, Machine: mc, Avail: avail, FS: soakFS(), Params: params, Obs: o}
}

// priceGray plans rs with recovery state, injects the fault schedule
// sched returns for that plan, and prices the write with failover:
// static with ad nil, under the adaptive policy otherwise.
func priceGray(ctx *collio.Context, s *core.Strategy, rs *collio.RequestSet, detect float64,
	ad *collio.Adaptive, sched func(*collio.Plan) (*faults.Plan, error)) (*collio.FaultResult, error) {
	plan, state, err := s.PlanWithStateSet(ctx, rs)
	if err != nil {
		return nil, err
	}
	sh, err := collio.BuildShapeSet(ctx, plan, rs)
	if err != nil {
		return nil, err
	}
	fplan, err := sched(plan)
	if err != nil {
		return nil, err
	}
	res, err := collio.CostShape(ctx, plan, sh, rs, []collio.Op{collio.Write}, sim.DefaultOptions(), collio.FaultEnv{
		Injector: faults.NewInjector(fplan),
		Handler:  &core.Failover{State: state, Detect: detect},
		Adaptive: ad,
	})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// grayDuel runs the pinned acceptance scenario on a fixed machine: a
// step-degrading OST and a straggling aggregator host, onset after the
// detector has a healthy baseline. The adaptive run must move the same
// user bytes, raise suspicion, fail over proactively, and finish in
// strictly less simulated time than the static retry-only baseline.
//
// The adaptive run always records into a timeline (the caller's rec,
// or a private one): the slowed OST's journal yields the onset →
// suspicion → reaction detection-lag decomposition the report and the
// ledger carry. The static run never records, so the overlay shows
// exactly what the adaptive policy saw and did.
func grayDuel(rep *GrayReport, fail func(int, string, ...any), rec *timeline.Recorder) error {
	if rec == nil {
		rec = timeline.NewRecorder(0, 0)
	}
	topo, err := mpi.BlockTopology(12, 3)
	if err != nil {
		return err
	}
	ctx := grayContext(topo, 1<<16, nil)
	reqs := make([]collio.RankRequest, 12)
	for i := range reqs {
		reqs[i] = collio.RankRequest{Rank: i,
			Extents: []pfs.Extent{{Offset: int64(i) << 18, Length: 1 << 18}}}
	}

	rs := collio.NewRequestSet(reqs)
	s := core.New()
	refPlan, err := s.PlanSet(ctx, rs)
	if err != nil {
		return err
	}
	ref, err := collio.CostSet(ctx, refPlan, rs, collio.Write, sim.DefaultOptions())
	if err != nil {
		return err
	}
	horizon := ref.Seconds * 6
	onset := ref.Seconds / 3
	spec := faults.DefaultSpec(11, horizon).WithRate(0)

	run := func(ad *collio.Adaptive) (*collio.FaultResult, error) {
		// Only the adaptive run records: a shallow context copy keeps
		// the static baseline recorder-free without sharing state.
		cctx := *ctx
		if ad != nil {
			cctx.Timeline = rec
		}
		return priceGray(&cctx, s, rs, spec.DetectSeconds, ad, func(plan *collio.Plan) (*faults.Plan, error) {
			victim := plan.Domains[0].AggNode
			return &faults.Plan{Spec: spec, Events: []faults.Event{
				{Kind: faults.Straggler, Time: onset, Node: victim, Target: -1,
					Duration: horizon, Severity: 8},
				{Kind: faults.OSTSlowdown, Time: onset, Node: -1, Target: 0,
					Duration: horizon, Severity: 5, Profile: faults.ProfileStep},
			}}, nil
		})
	}

	static, err := run(nil)
	if err != nil {
		return err
	}
	adaptive, err := run(grayAdaptive())
	if err != nil {
		return err
	}
	rep.DuelStaticSeconds = static.Seconds
	rep.DuelAdaptiveSeconds = adaptive.Seconds
	rep.DuelOnsetToSuspectSeconds, rep.DuelOnsetToReactionSeconds = -1, -1
	for _, l := range timeline.DetectionLags(rec.J().Events()) {
		if l.Entity == timeline.Ent("ost", 0) {
			rep.DuelOnsetToSuspectSeconds = l.OnsetToSuspect()
			rep.DuelOnsetToReactionSeconds = l.OnsetToReact()
		}
	}
	if rep.DuelOnsetToSuspectSeconds < 0 || rep.DuelOnsetToReactionSeconds < 0 {
		fail(-1, "duel detection lag unmeasurable: onset->suspect %.4g, onset->reaction %.4g",
			rep.DuelOnsetToSuspectSeconds, rep.DuelOnsetToReactionSeconds)
	}
	rep.SuspectEvents += adaptive.SuspectEvents
	rep.ProactiveFailovers += adaptive.ProactiveFailovers
	rep.BreakerOpens += adaptive.BreakerOpens
	rep.BreakerFastFails += adaptive.BreakerFastFails

	if adaptive.UserBytes != static.UserBytes {
		fail(-1, "user bytes diverged: adaptive %d vs static %d", adaptive.UserBytes, static.UserBytes)
	}
	if adaptive.SuspectEvents == 0 {
		fail(-1, "gray schedule raised no suspicion")
	}
	if adaptive.ProactiveFailovers == 0 {
		fail(-1, "suspected straggler triggered no proactive failover")
	}
	if adaptive.Seconds >= static.Seconds {
		fail(-1, "adaptive (%.4fs) not strictly faster than static (%.4fs)",
			adaptive.Seconds, static.Seconds)
	}
	return nil
}
