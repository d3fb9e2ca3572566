package collio

import (
	"fmt"
	"sort"
	"strconv"

	"mcio/internal/faults"
	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/stats"
)

// HostFault is one host-level fault (crash or memory collapse)
// delivered to a FaultHandler at a round boundary.
type HostFault struct {
	Node     int
	Kind     faults.Kind
	Time     float64 // simulated seconds, event schedule time
	Severity float64 // collapse fraction for MemCollapse
	// Proactive marks a health-driven re-placement: no hard fault has
	// fired — the suspicion detector crossed threshold — so the node's
	// in-flight round completed fine and the handler should charge
	// re-coordination cost, not failure-detection latency.
	Proactive bool
}

// Reassignment is a handler's decision for one affected domain.
//
// MergeInto >= 0 merges the domain's remaining work into that live
// domain (the memory-conscious leaf-takeover path): the absorber keeps
// its own aggregator and buffer. MergeInto < 0 re-places the domain
// standalone with the given aggregator, host, buffer and severity (the
// relocation fallback, or the baseline's stall-on-the-same-host, which
// re-places without moving). A zero BufferBytes keeps the domain's
// current buffer. StallSeconds is recovery dead time (detection or
// reboot); the cost loop charges the maximum across one event's
// reassignments once.
type Reassignment struct {
	Domain        int
	MergeInto     int
	Aggregator    int
	AggNode       int
	BufferBytes   int64
	PagedSeverity float64
	StallSeconds  float64
}

// FaultHandler is a strategy's mid-operation recovery policy: given a
// host fault and the indices of the live domains with remaining work on
// the failed host, decide where that work goes. live is the current
// domain set (placements reflect earlier recoveries); handlers must not
// mutate it — they return Reassignments and the cost loop applies them
// in order.
type FaultHandler interface {
	Name() string
	OnHostFault(ctx *Context, f HostFault, live []Domain, affected []int) ([]Reassignment, error)
}

// FaultResult extends CostResult with the resilience accounting of a
// faulted run.
type FaultResult struct {
	CostResult
	// Injected counts the fault events that fired, by kind name.
	Injected map[string]int
	// Failovers counts domain reassignments that moved work (merge or
	// relocation); Stalls counts same-host stall-and-retry recoveries.
	Failovers int
	Stalls    int
	// ReplayedRounds counts in-flight rounds re-run because their
	// aggregator was lost mid-round.
	ReplayedRounds int
	// StorageRetries counts OST requests re-issued inside transient
	// error windows; DroppedMessages/DelayedMessages count message
	// faults consumed.
	StorageRetries  int
	DroppedMessages int
	DelayedMessages int
	// CorruptedMessages counts MsgBitFlip events consumed: the chunk is
	// detected by end-to-end verification and re-requested, so its bytes
	// move twice plus a detection round-trip. TornWrites counts TornWrite
	// events consumed: the read-back verify re-issues the torn access.
	CorruptedMessages int
	TornWrites        int
	// Gray-failure accounting. FlakyDrops counts NICFlaky drops (a
	// subset of DroppedMessages); LeakedNodes counts nodes whose memory
	// budget a MemLeak decayed.
	FlakyDrops  int
	LeakedNodes int
	// Hedging accounting (CostAdaptive only). A hedged message's bytes
	// move twice — original and re-request — and the checksum path
	// discards the loser, so DedupedBytes never reach user accounting.
	HedgedMessages int
	HedgedBytes    int64
	DedupedBytes   int64
	// Adaptive-failover accounting (CostAdaptive only).
	ProactiveFailovers int
	SuspectEvents      int
	BreakerOpens       int
	BreakerFastFails   int
	// RecoverySeconds is simulated time spent on failure handling
	// (stalls + recovery rounds), a subset of Seconds.
	RecoverySeconds float64
	RecoveryRounds  int
}

// applyReassignment applies one handler decision to the live domain
// set. Merged victims are emptied (Bytes 0, Extents nil) rather than
// removed so domain indices stay stable across a faulted run.
func applyReassignment(live []Domain, ra Reassignment) error {
	if ra.Domain < 0 || ra.Domain >= len(live) {
		return fmt.Errorf("collio: reassignment of invalid domain %d", ra.Domain)
	}
	if ra.MergeInto >= 0 {
		if ra.MergeInto >= len(live) || ra.MergeInto == ra.Domain {
			return fmt.Errorf("collio: domain %d merged into invalid domain %d", ra.Domain, ra.MergeInto)
		}
		v, a := &live[ra.Domain], &live[ra.MergeInto]
		if v.Bytes > 0 {
			a.Extents = pfs.Union([][]pfs.Extent{a.Extents, v.Extents})
			a.Bytes += v.Bytes
		}
		v.Extents, v.Bytes = nil, 0
		return nil
	}
	d := &live[ra.Domain]
	d.Aggregator = ra.Aggregator
	d.AggNode = ra.AggNode
	if ra.BufferBytes > 0 {
		d.BufferBytes = ra.BufferBytes
	}
	d.PagedSeverity = ra.PagedSeverity
	return nil
}

// ApplyReassignments rewrites a domain set after host faults, the same
// bookkeeping CostWithFaults performs: merges fold the victim's extents
// into the absorber and empty the victim (indices stay stable);
// standalone entries rewrite placement. Use Plan.Compact afterwards to
// drop the emptied victims before Validate or Exec.
func ApplyReassignments(live []Domain, ras []Reassignment) error {
	for _, ra := range ras {
		if err := applyReassignment(live, ra); err != nil {
			return err
		}
	}
	return nil
}

// Compact returns a copy of the plan without emptied (fully merged)
// domains — the executable plan after fault recovery.
func (p *Plan) Compact() *Plan {
	q := &Plan{Strategy: p.Strategy, Groups: p.Groups, GroupRanks: p.GroupRanks}
	for _, d := range p.Domains {
		if d.Bytes > 0 {
			q.Domains = append(q.Domains, d)
		}
	}
	return q
}

// CostWithFaults prices plan like Cost, but with a fault injector
// advancing in simulated time and a FaultHandler deciding where the
// work of crashed or collapsed hosts goes. With a nil or empty injector
// the result is identical to Cost. The same plan, injector schedule and
// handler always produce the same result — faulted runs are as
// reproducible as clean ones.
func CostWithFaults(ctx *Context, plan *Plan, reqs []RankRequest, op Op, opt sim.Options,
	inj *faults.Injector, handler FaultHandler) (*FaultResult, error) {
	return costFaulted(ctx, plan, reqs, op, opt, faultEnv{inj: inj, handler: handler})
}

// faultEnv is the fault environment of one priced run; the zero value
// is a clean run.
type faultEnv struct {
	inj     *faults.Injector
	handler FaultHandler
	ad      *Adaptive // nil: the static retry-only policy
	// allHot walks every work item per rank, as if every node carried
	// live injector state. CostAdaptive needs it (its hedge window takes
	// every message's delay, in per-rank order); the exactness tests
	// price against it as the reference.
	allHot bool
}

// costFaulted is the entry behind Cost, CostWithFaults (the static
// retry-only policy) and CostAdaptive (health observation, circuit
// breakers, hedging and proactive failover). Fault *pricing* — including
// the gray kinds — is identical either way; only the response policy
// differs. An empty injector prices a clean run. Clean unobserved runs
// price from the per-node Shape; faulted, all-hot and observed runs need
// the per-rank contributor lists that recovery folds and the observer
// counts.
func costFaulted(ctx *Context, plan *Plan, reqs []RankRequest, op Op, opt sim.Options, env faultEnv) (*FaultResult, error) {
	if env.inj.Empty() {
		env.inj, env.handler, env.ad = nil, nil, nil
	} else if env.handler == nil {
		return nil, fmt.Errorf("collio: fault injection without a FaultHandler")
	}
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if env.inj == nil && !env.allHot && ctx.Obs == nil {
		sh, err := BuildShape(ctx, plan, reqs)
		if err != nil {
			return nil, err
		}
		return sh.faultShape(plan).price(ctx, plan, op, opt, env, nil)
	}
	co := newCostObs(ctx, plan, op)
	return buildFaultShape(ctx, plan, reqs, co).price(ctx, plan, op, opt, env, co)
}

// price is the one pricing loop: one data round per iteration, fault
// events applied at round boundaries.
//
// Healthy work items price as per-node bundles: one sim.AggMessage per
// (node, item) per round, reconstructed exactly by
// NodeContrib.share. The engine reduces messages to commutative
// per-node integer loads, so a bundle prices bit-identically to its
// constituent per-rank messages. An item touching a hot node — one with
// live message-level injector state: a delay window, pending drop or
// flip budgets, an active flaky-NIC cadence — walks that node's
// contributors per rank instead, preserving the injector's per-node
// query sequence and the order extra latency is summed in. Every
// injector query against a non-hot node is a no-op, and events apply
// only at round boundaries, so bundling the rest changes nothing.
//
// Storage prices the same way: each round slice maps to stripe spans
// (pfs.Mapper), and a span goes to the engine as one sim.IOOp. A
// target with live storage fault state — an open transient window, a
// due or applied permanent failure, pending torn writes — is hot; it
// is split out of its span and its access passes the storage hook on
// its own. Every hook call on a cold target is a no-op.
func (fs *faultShape) price(ctx *Context, plan *Plan, op Op, opt sim.Options, env faultEnv, co *costObs) (*FaultResult, error) {
	st := sim.StorageParams{
		Targets:         ctx.FS.Targets,
		TargetBW:        ctx.FS.TargetBW,
		ReqOverhead:     ctx.FS.ReqOverhead,
		NoncontigFactor: ctx.FS.NoncontigFactor,
		ReadBWFactor:    ctx.FS.ReadBWFactor,
	}
	eng, err := sim.NewEngine(ctx.Machine, st, opt)
	if err != nil {
		return nil, err
	}
	base := []obs.Label{obs.L("strategy", plan.Strategy), obs.L("op", op.String())}
	pid := 0
	if ctx.Obs != nil {
		pid = ctx.Obs.Tracer().PID(plan.Strategy)
		eng.SetObserver(ctx.Obs, pid, base...)
	}
	inj, handler, ad := env.inj, env.handler, env.ad
	if inj != nil {
		inj.SetObserver(ctx.Obs)
	}
	placements := make([]sim.AggregatorPlacement, len(plan.Domains))
	for i, d := range plan.Domains {
		placements[i] = sim.AggregatorPlacement{
			Node:          d.AggNode,
			BufferBytes:   d.BufferBytes,
			PagedSeverity: d.PagedSeverity,
		}
	}
	eng.SetAggregators(placements)
	tlAttach(ctx, eng, plan, op)
	tlBufferGauges(ctx, plan.Domains, 0)
	tlr := ctx.Timeline

	if len(fs.meta) > 0 {
		eng.RunAggRound(sim.AggRound{Kind: sim.RoundMetadata, Exchanges: fs.meta})
	}

	// Live domain set (placements mutate on recovery) and work items.
	live := plan.Domains
	items := fs.items
	res := &FaultResult{}
	nodes := ctx.Topo.Nodes()
	ioBW := ctx.FS.TargetBW
	if op == Read && ctx.FS.ReadBWFactor > 0 {
		ioBW *= ctx.FS.ReadBWFactor
	}
	// hot marks the nodes whose messages walk per rank this round, and
	// tgtHot the targets whose accesses go through the access hook one
	// at a time; both nil when nothing can be hot. All-hot runs (the
	// adaptive policy's breakers among them) mark everything.
	var hot, tgtHot []bool
	if env.allHot || inj != nil {
		hot = make([]bool, nodes)
		tgtHot = make([]bool, ctx.FS.Targets)
		for n := range hot {
			hot[n] = env.allHot
		}
		for t := range tgtHot {
			tgtHot[t] = env.allHot
		}
	}
	anyTgtHot := env.allHot
	var spec faults.Spec
	// leakFrac tracks the largest MemLeak fraction already applied per
	// node; leakSev the paging severity that decay produced (kept apart
	// from nodeSeverity so adaptive observation can attribute it).
	// nodeSeverity tracks the worst paging severity declared per node so
	// recoveries never accidentally lower another domain's penalty.
	var leakFrac, leakSev []float64
	var nodeSeverity map[int]float64
	if inj != nil {
		live = append([]Domain(nil), live...)
		spec = inj.Spec()
		if ad != nil {
			ad.init(spec)
			ad.Detector.SetObserver(ctx.Obs)
			ad.Breakers.SetObserver(ctx.Obs)
		}
		leakFrac = make([]float64, nodes)
		leakSev = make([]float64, nodes)
		nodeSeverity = map[int]float64{}
		for _, d := range live {
			if d.PagedSeverity > nodeSeverity[d.AggNode] {
				nodeSeverity[d.AggNode] = d.PagedSeverity
			}
		}
	}

	// handleHostEvent applies one host-level event through the handler
	// and returns how many reassignments it decided (a handler may
	// lawfully decline a proactive move — e.g. no live host to take the
	// work — in which case nothing changes and nothing is charged).
	handleHostEvent := func(ev faults.Event, proactive bool) (int, error) {
		evKind := timeline.EvFailover
		if proactive {
			evKind = timeline.EvProactive
		}
		// Which items (and through them, live domains) lose their host?
		var affectedItems []int
		domainSet := map[int]bool{}
		for ii, it := range items {
			if it.Active() && live[it.Domain].AggNode == ev.Node {
				affectedItems = append(affectedItems, ii)
				domainSet[it.Domain] = true
			}
		}
		affected := make([]int, 0, len(domainSet))
		for d := range domainSet {
			affected = append(affected, d)
		}
		sort.Ints(affected)

		// The round in flight when the host died is lost: replay it. A
		// proactive move happens between rounds on a live host — nothing
		// was lost, nothing replays.
		if !proactive {
			for _, ii := range affectedItems {
				if items[ii].Done > 0 {
					items[ii].Done--
					res.ReplayedRounds++
				}
			}
		}

		ras, err := handler.OnHostFault(ctx, HostFault{
			Node: ev.Node, Kind: ev.Kind, Time: ev.Time, Severity: ev.Severity,
			Proactive: proactive,
		}, live, affected)
		if err != nil {
			return 0, err
		}

		var stall float64
		var rec sim.AggRound
		// refold retires every item bound to domain src and re-creates
		// its remaining work bound to domain dst. With reExchange the
		// surviving contributors re-ship their remaining extent lists to
		// dst's aggregator as a recovery round; every contributor of one
		// folded item ships the same payload, so consecutive same-node
		// senders bundle into one aggregate message (all hot, each
		// contributor sends its own).
		refold := func(src, dst int, reExchange bool) {
			// Snapshot the length: folding appends successors, and when
			// src == dst (an in-place re-placement) a successor would
			// match the filter and fold itself forever.
			n := len(items)
			for ii := 0; ii < n; ii++ {
				it := items[ii]
				if it.Domain != src || !it.Active() {
					continue
				}
				nit := it.fold(dst, live)
				it.Done = it.Rounds // retire
				if nit == nil {
					continue
				}
				items = append(items, nit)
				if !reExchange {
					continue
				}
				bytes := nit.recoveryMetaBytes()
				dstNode := live[dst].AggNode
				for _, c := range nit.Contribs {
					co.transfer(c.Rank, live[dst].Aggregator, bytes)
					if k := len(rec.Messages); k > 0 && !env.allHot {
						if m := &rec.Messages[k-1]; m.SrcNode == c.Node && m.DstNode == dstNode {
							m.Bytes += bytes
							m.Count++
							continue
						}
					}
					rec.Messages = append(rec.Messages, sim.AggMessage{
						SrcNode: c.Node, DstNode: dstNode, Bytes: bytes, Count: 1,
					})
				}
			}
		}
		for _, ra := range ras {
			if ra.StallSeconds > stall {
				stall = ra.StallSeconds
			}
			if ra.MergeInto >= 0 {
				refold(ra.Domain, ra.MergeInto, true)
				if err := applyReassignment(live, ra); err != nil {
					return 0, err
				}
				res.Failovers++
				if tlr != nil {
					tlr.J().Record(ev.Time, evKind, timeline.Ent("node", ev.Node),
						fmt.Sprintf("domain %d merged into %d (node %d)",
							ra.Domain, ra.MergeInto, live[ra.MergeInto].AggNode))
				}
				continue
			}
			moved := live[ra.Domain].AggNode != ra.AggNode
			bufChanged := ra.BufferBytes > 0 && live[ra.Domain].BufferBytes != ra.BufferBytes
			if err := applyReassignment(live, ra); err != nil {
				return 0, err
			}
			if s := ra.PagedSeverity; s > nodeSeverity[ra.AggNode] {
				nodeSeverity[ra.AggNode] = s
			}
			eng.SetNodePaged(ra.AggNode, nodeSeverity[ra.AggNode])
			if moved || bufChanged {
				refold(ra.Domain, ra.Domain, moved)
				res.Failovers++
				if tlr != nil {
					tlr.J().Record(ev.Time, evKind, timeline.Ent("node", ev.Node),
						fmt.Sprintf("domain %d re-placed on node %d", ra.Domain, ra.AggNode))
				}
			} else {
				res.Stalls++
			}
		}
		if len(ras) > 0 {
			tlBufferGauges(ctx, live, ev.Time)
		}
		if stall > 0 {
			eng.AddRecoveryLatency(stall, ev.Kind.String())
		}
		if len(rec.Messages) > 0 {
			eng.RunAggRecoveryRound(rec)
		}
		return len(ras), nil
	}

	// boundary applies everything the injector and the adaptive policy
	// decide at a round boundary: host events, stragglers, gray storage,
	// memory leaks, suspicion, breakers and proactive failover.
	boundary := func(now float64) error {
		for _, ev := range inj.Advance(now) {
			if tlr != nil {
				// The event's own schedule time, not the round boundary
				// that discovered it: detection lag is measured from here.
				tlr.J().Record(ev.Time, timeline.EvFault, ev.EntityLabel(), ev.Describe())
			}
			if ev.Kind != faults.NodeCrash && ev.Kind != faults.MemCollapse {
				continue
			}
			if _, err := handleHostEvent(ev, false); err != nil {
				return err
			}
		}
		for n := 0; n < nodes; n++ {
			eng.SetNodeSlowdown(n, inj.NodeSlowdown(n, now))
		}

		// Gray-fault pricing, identical for static and adaptive runs: a
		// slowed-down OST stretches honest streaming (the excess lands in
		// delay blame), a leaking node pages harder every round.
		for t := 0; t < ctx.FS.Targets; t++ {
			eng.SetTargetSlowdown(t, inj.OSTSlowdownFactor(t, now))
		}
		for n := 0; n < nodes; n++ {
			frac := inj.MemLeakFraction(n, now)
			if frac <= leakFrac[n] {
				continue
			}
			if leakFrac[n] == 0 {
				res.LeakedNodes++
			}
			leakFrac[n] = frac
			if tlr != nil {
				tlr.AddGauge(timeline.Ent("node", n), "leak_frac", now, frac)
			}
			var sev float64
			if mh, ok := handler.(MemDecayHandler); ok {
				sev = mh.OnMemDecay(n, frac)
			} else {
				sev = LeakSeverity(live, ctx.Avail[n], n, frac)
			}
			if sev > leakSev[n] {
				leakSev[n] = sev
			}
			if leakSev[n] > nodeSeverity[n] {
				nodeSeverity[n] = leakSev[n]
			}
			eng.SetNodePaged(n, nodeSeverity[n])
		}

		// Adaptive policy: feed the suspicion detector the per-entity
		// service signals this round boundary exposes, open breakers on
		// newly suspected targets, and proactively move work off
		// suspected hosts before a hard fault makes the decision for us.
		if ad == nil || ad.Detector == nil {
			return nil
		}
		unit := spec.DropTimeoutSeconds
		if unit <= 0 {
			unit = 0.01
		}
		for t := 0; t < ctx.FS.Targets; t++ {
			wasSus := ad.Detector.Suspected("ost", t)
			if ad.Detector.Observe("ost", t, inj.OSTSlowdownFactor(t, now)) {
				// Every round a target stays suspected is one suspicion
				// event against its breaker — the Nth opens it.
				before := ad.Breakers.State(t)
				ad.Breakers.OnFailure(t, now)
				tlBreakerEvent(tlr, before, ad.Breakers.State(t), t, now)
			}
			tlSuspicion(tlr, ad.Detector, "ost", t, wasSus, now)
		}
		for n := 0; n < nodes; n++ {
			sig := inj.NodeSlowdown(n, now) +
				(inj.MsgDelaySeconds(n, now)+inj.NICDelaySeconds(n, now))/unit +
				4*leakSev[n]
			wasSus := ad.Detector.Suspected("node", n)
			ad.Detector.Observe("node", n, sig)
			tlSuspicion(tlr, ad.Detector, "node", n, wasSus, now)
		}
		if !ad.Proactive {
			return nil
		}
		for _, n := range ad.Detector.SuspectedIDs("node") {
			if ad.handled[n] {
				continue
			}
			hasWork := false
			for _, it := range items {
				if it.Active() && live[it.Domain].AggNode == n {
					hasWork = true
					break
				}
			}
			if !hasWork {
				continue
			}
			ad.handled[n] = true
			ev := faults.Event{Kind: faults.Straggler, Time: now, Node: n, Severity: 1}
			moved, err := handleHostEvent(ev, true)
			if err != nil {
				return err
			}
			// A declined move (handler found no live host to take the
			// work) counts as nothing: the node keeps its domains and its
			// suspicion stays on record.
			if moved > 0 {
				res.ProactiveFailovers++
			}
		}
		return nil
	}

	// The round being built and its extra latency, which message adds to
	// term by term: float addition order is part of the price.
	var round sim.AggRound
	var extraLat float64

	// message applies the message-level fault state to one per-rank
	// shuffle message from a hot node and charges the round its extra
	// latency: delay windows (hedged under the adaptive policy), drops
	// and flaky-NIC drops resent after the drop timeout, and corrupted
	// messages re-requested after end-to-end verification. Every resend
	// moves the bytes again.
	message := func(m sim.AggMessage, now float64) {
		if delay := inj.MsgDelaySeconds(m.SrcNode, now) + inj.NICDelaySeconds(m.SrcNode, now); delay > 0 {
			charged := delay
			if ad != nil {
				if dl, armed := ad.hedgeDeadline(); armed && dl < delay {
					// Hedge the straggler: at the quantile deadline a
					// duplicate re-request goes out and the first arrival
					// wins. The duplicate's bytes move on the wire but the
					// checksum path discards the loser, so they never
					// reach user accounting.
					charged = dl
					round.Messages = append(round.Messages, m)
					res.HedgedMessages++
					res.HedgedBytes += m.Bytes
					res.DedupedBytes += m.Bytes
					if tlr != nil {
						tlr.J().Record(now, timeline.EvHedge, timeline.Ent("node", m.SrcNode),
							fmt.Sprintf("%d bytes re-requested", m.Bytes))
					}
				}
			}
			extraLat += charged
			res.DelayedMessages++
		}
		if ad != nil {
			ad.window.Add(inj.MsgDelaySeconds(m.SrcNode, now) + inj.NICDelaySeconds(m.SrcNode, now))
		}
		if inj.TakeDrop(m.SrcNode) {
			round.Messages = append(round.Messages, m)
			extraLat += spec.DropTimeoutSeconds
			res.DroppedMessages++
		}
		if inj.TakeNICDrop(m.SrcNode, now) {
			round.Messages = append(round.Messages, m)
			extraLat += spec.DropTimeoutSeconds
			res.DroppedMessages++
			res.FlakyDrops++
		}
		if inj.TakeMsgFlip(m.SrcNode) {
			round.Messages = append(round.Messages, m)
			extraLat += spec.DropTimeoutSeconds
			res.CorruptedMessages++
			if tlr != nil {
				tlr.J().Record(now, timeline.EvRepair, timeline.Ent("node", m.SrcNode),
					fmt.Sprintf("corrupted message re-requested (%d bytes)", m.Bytes))
			}
		}
	}

	// access applies the storage fault state to one access. An open
	// breaker fails fast into degraded service: the access skips the
	// retry ladder and pays only the degraded streaming factor. Otherwise
	// the target's retry ladder and degraded mode apply, and the access
	// feeds the breaker. A torn write is caught by the read-back verify
	// and re-issued: one extra request on the target.
	access := func(io *sim.IOOp, now float64) {
		fastFail := false
		if ad != nil {
			// Allow may move the breaker Open -> HalfOpen at the probe
			// deadline; the state diff journals it.
			before := ad.Breakers.State(io.Target)
			fastFail = !ad.Breakers.Allow(io.Target, now)
			tlBreakerEvent(tlr, before, ad.Breakers.State(io.Target), io.Target, now)
		}
		if fastFail {
			io.DelaySeconds = float64(io.Bytes) / ioBW * (max(spec.DegradedFactor, 1) - 1)
			io.Degraded = true
		} else {
			retries, backoff, degraded := inj.OSTPenalty(io.Target, now)
			io.DelaySeconds = backoff
			if degraded {
				io.DelaySeconds += float64(io.Bytes) / ioBW * (spec.DegradedFactor - 1)
			}
			io.Requests += retries
			res.StorageRetries += retries
			if ad != nil {
				before := ad.Breakers.State(io.Target)
				if retries > 0 {
					ad.Breakers.OnFailure(io.Target, now)
				} else if !inj.OSTWindowActive(io.Target, now) &&
					!(ad.Detector != nil && ad.Detector.Suspected("ost", io.Target)) {
					// A clean access only votes "healthy" when the detector
					// agrees — a suspected-slow target must not have its
					// breaker failure count washed out by accesses that
					// merely completed (slowly).
					ad.Breakers.OnSuccess(io.Target, now)
				}
				tlBreakerEvent(tlr, before, ad.Breakers.State(io.Target), io.Target, now)
			}
		}
		if op == Write && inj.TakeTornWrite(io.Target) {
			io.Requests++
			res.TornWrites++
			if tlr != nil {
				tlr.J().Record(now, timeline.EvRepair, timeline.Ent("ost", io.Target),
					"torn write re-issued")
			}
		}
	}

	// The guard bounds pathological refold cascades; a correct handler
	// converges far below it.
	guard := 16*(fs.totalRounds+1) + 1024
	executed := 0
	var slice []pfs.Extent
	mapper := ctx.FS.NewMapper()
	// active lists the items with rounds left, in item order. An item
	// that is done never becomes active again — replays only rewind
	// active items, refolds retire items and append their successors —
	// so each round appends the successors and drops the finished.
	var active []*faultItem
	listed := 0
	for {
		now := eng.Elapsed()
		if inj != nil {
			if err := boundary(now); err != nil {
				return nil, err
			}
		}
		active = append(active, items[listed:]...)
		listed = len(items)
		kept := active[:0]
		for _, it := range active {
			if it.Active() {
				kept = append(kept, it)
			}
		}
		active = kept
		if len(active) == 0 {
			break
		}
		if inj != nil && !env.allHot {
			for n := range hot {
				hot[n] = inj.MessageHot(n, now)
			}
			anyTgtHot = false
			for t := range tgtHot {
				tgtHot[t] = inj.StorageHot(t, now)
				anyTgtHot = anyTgtHot || tgtHot[t]
			}
		}

		round.Messages = round.Messages[:0]
		round.IOOps = round.IOOps[:0]
		extraLat = 0
		for _, it := range active {
			d := &live[it.Domain]
			s := it.Done
			co.shuffle(it, d.Aggregator, op)
			// An item is hot when any of its messages' source node is: the
			// aggregator node on reads (every message originates there),
			// any contributing node on writes.
			itemHot := env.allHot
			if hot != nil && !itemHot {
				if op == Read {
					itemHot = hot[d.AggNode]
				} else {
					aggs, _ := it.nodeAggs()
					for _, nc := range aggs {
						if hot[nc.Node] {
							itemHot = true
							break
						}
					}
				}
			}
			if itemHot {
				// The hot branch: walk the hot sources per rank, in
				// contributor order. Healthy-node messages are skipped here
				// (their queries are no-ops and they add no latency) and
				// bundled below.
				for _, c := range it.Contribs {
					m := sim.AggMessage{SrcNode: c.Node, DstNode: d.AggNode, Bytes: evenShare(c.Bytes, s, it.Rounds), Count: 1}
					if op == Read {
						m.SrcNode, m.DstNode = m.DstNode, m.SrcNode
					}
					if m.Bytes == 0 || !hot[m.SrcNode] {
						continue
					}
					if inj != nil {
						message(m, now)
					}
					round.Messages = append(round.Messages, m)
				}
			}
			if !env.allHot && (op == Write || !itemHot) {
				aggs, cur := it.nodeAggs()
				for i := range aggs {
					nc := &aggs[i]
					if itemHot && hot[nc.Node] {
						continue
					}
					bytes, msgs := nc.share(&cur[i], s)
					if bytes == 0 {
						continue
					}
					m := sim.AggMessage{SrcNode: nc.Node, DstNode: d.AggNode, Bytes: bytes, Count: msgs}
					if op == Read {
						m.SrcNode, m.DstNode = m.DstNode, m.SrcNode
					}
					round.Messages = append(round.Messages, m)
				}
			}
			// Storage: this round's staggered slice of the item through the
			// collective buffer. Slices are staggered cyclically across
			// domains: aggregators do not run in lockstep on a real
			// machine, and without the stagger, stripe-cycle-aligned
			// domains would hit the same storage target in every round.
			idx := (s + it.Rot) % it.Rounds
			slice = pfs.SliceDataAppend(slice[:0], it.Base, int64(idx)*it.Buf, it.Buf)
			// Each stripe span goes to the engine whole; a hot target is
			// split out of it and passes the access hook on its own, in
			// Map order. Every hook call on a cold target is a no-op, so
			// the cold runs price as they are.
			for _, acc := range mapper.Map(slice) {
				io := sim.IOOp{
					Target:     acc.Target,
					Count:      acc.Count,
					Node:       d.AggNode,
					Bytes:      acc.Bytes,
					Requests:   acc.Requests,
					Contiguous: acc.Contiguous,
					Write:      op == Write,
				}
				if !anyTgtHot {
					round.IOOps = append(round.IOOps, io)
					continue
				}
				for t, end := acc.Target, acc.Target+acc.Count; t < end; {
					h := t // the first hot target at or after t, or end
					for h < end && !tgtHot[h] {
						h++
					}
					if h > t {
						io.Target, io.Count = t, h-t
						round.IOOps = append(round.IOOps, io)
					}
					if h == end {
						break
					}
					one := io
					one.Target, one.Count = h, 1
					if inj != nil {
						access(&one, now)
					}
					round.IOOps = append(round.IOOps, one)
					t = h + 1
				}
			}
			it.Done++
		}
		if extraLat > 0 {
			eng.AddLatency(extraLat)
		}
		eng.RunAggRound(round)
		executed++
		if executed > guard {
			return nil, fmt.Errorf("collio: fault recovery did not converge after %d rounds", executed)
		}
	}

	userBytes := plan.TotalBytes()
	if ctx.Obs != nil {
		name := plan.Strategy + " " + op.String()
		if inj != nil {
			name += " (faults)"
		}
		span := ctx.Obs.Tracer().Begin(pid, sim.TIDTimeline, name, 0,
			obs.A("groups", strconv.Itoa(plan.Groups)),
			obs.A("domains", strconv.Itoa(len(plan.Domains))),
			obs.A("rounds", strconv.Itoa(executed)),
			obs.A("user_bytes", strconv.FormatInt(userBytes, 10)))
		span.End(eng.Elapsed())
	}
	totals := eng.Totals()
	res.CostResult = CostResult{
		Strategy:  plan.Strategy,
		Op:        op,
		UserBytes: userBytes,
		Seconds:   eng.Elapsed(),
		Bandwidth: eng.Bandwidth(userBytes),
		Totals:    totals,
		Domains:   len(plan.Domains),
		Groups:    plan.Groups,
		MaxRounds: executed,
	}
	res.Aggregators = len(plan.Aggregators())
	buffers := make([]float64, 0, len(plan.Domains))
	for _, d := range plan.Domains {
		buffers = append(buffers, float64(d.BufferBytes))
		if d.PagedSeverity > 0 {
			res.PagedAggregators++
		}
	}
	res.BufferSummary = stats.Summarize(buffers)
	if opt.Trace {
		res.Trace = eng.Trace()
	}
	if inj == nil {
		res.Injected = map[string]int{}
		return res, nil
	}
	res.Injected = inj.Counts()
	res.RecoverySeconds = totals.RecoverySeconds
	res.RecoveryRounds = totals.RecoveryRounds
	if ad != nil {
		res.SuspectEvents = ad.Detector.Transitions()
		res.BreakerOpens = ad.Breakers.Opens()
		res.BreakerFastFails = ad.Breakers.FastFails()
	}
	if o := ctx.Obs; o != nil {
		o.Counter("faults.failovers", base...).Add(int64(res.Failovers))
		o.Counter("faults.stalls", base...).Add(int64(res.Stalls))
		o.Counter("faults.replayed_rounds", base...).Add(int64(res.ReplayedRounds))
		o.Counter("faults.storage_retries", base...).Add(int64(res.StorageRetries))
		o.Counter("faults.dropped_messages", base...).Add(int64(res.DroppedMessages))
		o.Counter("faults.delayed_messages", base...).Add(int64(res.DelayedMessages))
		o.Counter("faults.corrupted_messages", base...).Add(int64(res.CorruptedMessages))
		o.Counter("faults.torn_writes", base...).Add(int64(res.TornWrites))
		o.Counter("faults.flaky_drops", base...).Add(int64(res.FlakyDrops))
		o.Counter("faults.leaked_nodes", base...).Add(int64(res.LeakedNodes))
		if ad != nil {
			o.Counter("faults.hedged_messages", base...).Add(int64(res.HedgedMessages))
			o.Counter("faults.hedged_bytes", base...).Add(res.HedgedBytes)
			o.Counter("faults.deduped_bytes", base...).Add(res.DedupedBytes)
			o.Counter("faults.proactive_failovers", base...).Add(int64(res.ProactiveFailovers))
		}
	}
	return res, nil
}

// LeakSeverity is the inline MemLeak fallback for handlers without
// memory accounting: the live domains' buffer reservations on node
// against the decayed budget give the paged fraction.
func LeakSeverity(live []Domain, avail int64, node int, frac float64) float64 {
	var reserved int64
	for _, d := range live {
		if d.AggNode == node && d.Bytes > 0 {
			reserved += d.BufferBytes
		}
	}
	if reserved <= 0 {
		return 0
	}
	budget := int64(float64(avail) * (1 - frac))
	over := reserved - budget
	if over <= 0 {
		return 0
	}
	s := float64(over) / float64(reserved)
	if s > 1 {
		s = 1
	}
	return s
}
