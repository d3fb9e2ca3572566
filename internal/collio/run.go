package collio

import (
	"fmt"
	"strconv"

	"mcio/internal/faults"
	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/stats"
)

// pricingRun is one priced run of a plan: the access-list exchange (the
// shape's metadata scatter), then one data round per step, each a
// shuffle phase and a storage phase, with fault events applied at round
// boundaries. Its FaultEnv is the one variable; the zero env is the
// clean run. Items and stripe spans touching no hot node or target
// price as per-node bundles and whole spans; hot ones walk per rank and
// per target through the injector hooks, in the order the injector is
// queried and extra latency is summed in (DESIGN.md, "Pricing: one
// loop, bundled where exact, per rank where hot").
//
// A run prices one direction, or both. Its rounds are built for the
// first, whose engine and result fault state and recovery act on; the
// mirror direction's engine, when there is one, runs each round
// mirrored. Only a clean run without an observer or timeline prices
// both (CostShape).
type pricingRun struct {
	FaultEnv
	direction
	mirror *direction // the opposite direction; nil when the run prices one
	ctx    *Context
	plan   *Plan
	opt    sim.Options
	tlr    *timeline.Recorder
	base   []obs.Label // the observer labels: strategy and op
	pid    int         // the strategy's tracer process

	nodes int
	ioBW  float64     // per-target streaming bandwidth for op
	spec  faults.Spec // the injector's; zero on a clean run

	meta        []sim.Exchange
	live        []Domain // the plan's domains; a faulted run's own copy, which recovery mutates
	items       []*faultItem
	active      []*faultItem // the items with rounds left, in item order
	listed      int          // how many of items active has taken
	totalRounds int          // the initial items' rounds, for the divergence guard
	executed    int          // data rounds run

	// hot marks the nodes whose messages walk per rank this round, and
	// tgtHot the targets whose accesses pass the storage hook one at a
	// time; each is nil when nothing it marks can be hot: a clean run,
	// or a schedule without message (or storage) faults.
	hot, tgtHot []bool
	node        []nodeFault // by node; nil on a clean run

	// The round being built and its extra latency, which message adds to
	// term by term: float addition order is part of the price.
	round         sim.AggRound
	extraLat      float64
	msgCap, ioCap int // the round buffers' size before the first round
	slice         []pfs.Extent
	mapper        *pfs.Mapper
}

// direction is one direction a run prices, with the engine that prices
// it and its result.
type direction struct {
	op  Op
	eng *sim.Engine
	res *FaultResult
}

// nodeFault is one node's fault state in a faulted run.
type nodeFault struct {
	leakFrac float64 // the largest MemLeak fraction applied
	leakSev  float64 // the paging severity leak decay produced, for adaptive observation
	severity float64 // the worst paging severity declared, so recoveries never lower it
}

// newPricingRun readies a run of plan in the directions ops, priced
// from sh, the shape built from it. src derives the items' per-rank
// lists.
func newPricingRun(ctx *Context, plan *Plan, sh *Shape, src *rankSource, ops []Op, opt sim.Options,
	env FaultEnv) (*pricingRun, error) {
	r := &pricingRun{FaultEnv: env, ctx: ctx, plan: plan, opt: opt,
		nodes: ctx.Topo.Nodes(), meta: sh.MetaExchanges, live: plan.Domains}
	r.items, r.totalRounds = sh.workItems(plan, src)
	// A clean run prices its longest item's rounds plus the metadata
	// round; recovery rounds, if any, grow the trace past that.
	maxRounds := 0
	for _, it := range r.items {
		maxRounds = max(maxRounds, it.Rounds)
	}
	placements := make([]sim.AggregatorPlacement, len(plan.Domains))
	for i, d := range plan.Domains {
		placements[i] = sim.AggregatorPlacement{Node: d.AggNode, BufferBytes: d.BufferBytes, PagedSeverity: d.PagedSeverity}
	}
	for i, op := range ops {
		eng, err := ctx.NewEngine(opt)
		if err != nil {
			return nil, err
		}
		eng.ReserveTrace(maxRounds + 1)
		d := direction{op: op, eng: eng, res: &FaultResult{}}
		if i == 0 {
			r.direction = d
			// The observer, which only a run of one direction has,
			// attaches before the placements are set: it counts them.
			r.base = []obs.Label{obs.L("strategy", plan.Strategy), obs.L("op", op.String())}
			if ctx.Obs != nil {
				r.pid = ctx.Obs.Tracer().PID(plan.Strategy)
				eng.SetObserver(ctx.Obs, r.pid, r.base...)
			}
		} else {
			r.mirror = &d
		}
		eng.SetAggregators(placements)
	}
	if r.tlr = ctx.Timeline; r.tlr != nil {
		r.eng.SetTimeline(r.tlr)
		r.tlr.SetMeta("strategy", plan.Strategy)
		r.tlr.SetMeta("op", r.op.String())
		r.tlr.SetMeta("mem_min_bytes", strconv.FormatInt(ctx.Params.MemMin, 10))
	}
	tlBufferGauges(ctx, plan.Domains, 0)
	r.ioBW = r.eng.Storage().StreamBW(r.op == Write)
	// Only a fault that can make a node's messages, or a target's
	// accesses, cost more gives the run a hot set to decide.
	if r.allHot || r.Injector.Holds(faults.MsgDelay, faults.MsgDrop, faults.MsgBitFlip, faults.NICFlaky) {
		r.hot = make([]bool, r.nodes)
	}
	if r.allHot || r.Injector.Holds(faults.TornWrite, faults.OSTTransient, faults.OSTPermanent) {
		r.tgtHot = make([]bool, ctx.FS.Targets)
	}
	if r.Injector != nil {
		r.Injector.SetObserver(ctx.Obs)
		r.live = append([]Domain(nil), r.live...)
		r.spec = r.Injector.Spec()
		if r.Adaptive != nil {
			r.Adaptive.init()
			r.Adaptive.Detector.SetObserver(ctx.Obs)
			r.Adaptive.Breakers.SetObserver(ctx.Obs)
		}
		r.node = make([]nodeFault, r.nodes)
		for i, d := range r.live {
			if uint(d.AggNode) >= uint(r.nodes) {
				return nil, fmt.Errorf("collio: domain %d on node %d, outside [0,%d)", i, d.AggNode, r.nodes)
			}
			if nf := &r.node[d.AggNode]; d.PagedSeverity > nf.severity {
				nf.severity = d.PagedSeverity
			}
		}
	}
	// The round buffers are sized once, from the initial items: a round
	// sends at most one bundle per (item, node), one message per rank
	// instead from a node the run can find message-hot, and issues at
	// most spanBound accesses per item. Resends, hot targets and
	// refolded items may pass that and grow them.
	for _, it := range r.items {
		r.msgCap += r.messageBound(it)
		r.ioCap += it.spanBound(ctx.FS)
	}
	r.round.Messages = make([]sim.AggMessage, 0, r.msgCap)
	r.round.IOOps = make([]sim.IOOp, 0, r.ioCap)
	r.mapper = ctx.FS.NewMapper()
	return r, nil
}

// messageBound is how many messages one of the item's shuffle steps
// sends at most, resends aside: a bundle per contributing node, or one
// per rank of a node that can turn message-hot; on a read every
// message leaves the aggregator's node.
func (r *pricingRun) messageBound(it *faultItem) int {
	if r.hot == nil {
		return len(it.aggs)
	}
	hot := func(node int) bool { return r.allHot || r.Injector.MessageFaulted(node) }
	n := 0
	for _, nc := range it.aggs {
		if hot(nc.Node) || (r.op == Read && hot(r.live[it.Domain].AggNode)) {
			n += nc.Count
		} else {
			n++
		}
	}
	return n
}

// price runs the access-list exchange, then data rounds until no item
// has work left, and returns one result per direction.
func (r *pricingRun) price() ([]*FaultResult, error) {
	if len(r.meta) > 0 {
		// The access-list exchange is the same in either direction.
		meta := sim.AggRound{Kind: sim.RoundMetadata, Exchanges: r.meta}
		r.eng.RunAggRound(meta)
		if r.mirror != nil {
			r.mirror.eng.RunAggRound(meta)
		}
	}
	// The guard bounds pathological refold cascades; a correct handler
	// converges far below it.
	guard := 16*(r.totalRounds+1) + 1024
	for {
		now := r.eng.Elapsed()
		if r.Injector != nil {
			if err := r.boundary(now); err != nil {
				return nil, err
			}
		}
		// A finished item never becomes active again (replays rewind
		// only active items; refolds retire items and append their
		// successors), so the list takes the successors and drops the
		// finished.
		r.active = append(r.active, r.items[r.listed:]...)
		r.listed = len(r.items)
		kept := r.active[:0]
		for _, it := range r.active {
			if it.Active() {
				kept = append(kept, it)
			}
		}
		r.active = kept
		if len(kept) == 0 {
			break
		}
		r.assemble(now)
		if r.extraLat > 0 {
			r.eng.AddLatency(r.extraLat)
		}
		r.eng.RunAggRound(r.round)
		if r.mirror != nil {
			r.mirror.eng.RunAggRoundMirrored(r.round)
		}
		r.executed++
		if r.executed > guard {
			return nil, fmt.Errorf("collio: fault recovery did not converge after %d rounds", r.executed)
		}
	}
	return r.finish(), nil
}

// itemsOn lists, in item order, the active items whose live domain sits
// on node.
func (r *pricingRun) itemsOn(node int) []*faultItem {
	var on []*faultItem
	for _, it := range r.items {
		if it.Active() && r.live[it.Domain].AggNode == node {
			on = append(on, it)
		}
	}
	return on
}

// boundary applies what the injector and the adaptive policy decide at
// a round boundary, in this order: host events, stragglers, OST
// slowdown, memory leaks, then the suspicion detector.
func (r *pricingRun) boundary(now float64) error {
	for _, ev := range r.Injector.Advance(now) {
		if r.tlr != nil {
			// The event's own schedule time, not the round boundary
			// that discovered it: detection lag is measured from here.
			r.tlr.J().Record(ev.Time, timeline.EvFault, ev.EntityLabel(), ev.Describe())
		}
		if ev.Kind == faults.NodeCrash || ev.Kind == faults.MemCollapse {
			if _, err := r.hostEvent(ev, false); err != nil {
				return err
			}
		}
	}
	for n := 0; n < r.nodes; n++ {
		r.eng.SetNodeSlowdown(n, r.Injector.NodeSlowdown(n, now))
	}
	// Gray-fault pricing, identical for static and adaptive runs: a
	// slowed-down OST stretches honest streaming (the excess lands in
	// delay blame), a leaking node pages harder every round. A schedule
	// without the fault leaves every target at 1× and every node
	// unleaked, which the scans would only confirm.
	if r.Injector.Holds(faults.OSTSlowdown) {
		for t := 0; t < r.ctx.FS.Targets; t++ {
			r.eng.SetTargetSlowdown(t, r.Injector.OSTSlowdownFactor(t, now))
		}
	}
	if r.Injector.Holds(faults.MemLeak) {
		r.leak(now)
	}
	return r.detect(now)
}

// leak applies the memory-leak decay at a boundary: each node whose
// leaked fraction grew pages harder.
func (r *pricingRun) leak(now float64) {
	for n := range r.node {
		frac, nf := r.Injector.MemLeakFraction(n, now), &r.node[n]
		if frac <= nf.leakFrac {
			continue
		}
		if nf.leakFrac == 0 {
			r.res.LeakedNodes++
		}
		nf.leakFrac = frac
		if r.tlr != nil {
			r.tlr.AddGauge(timeline.Ent("node", n), "leak_frac", now, frac)
		}
		var sev float64
		if mh, ok := r.Handler.(MemDecayHandler); ok {
			sev = mh.OnMemDecay(n, frac)
		} else {
			sev = r.leakSeverity(n, frac)
		}
		if sev > nf.leakSev {
			nf.leakSev = sev
		}
		if nf.leakSev > nf.severity {
			nf.severity = nf.leakSev
		}
		r.eng.SetNodePaged(n, nf.severity)
	}
}

// leakSeverity is the MemLeak fallback for handlers without memory
// accounting: the live domains' buffer reservations on node against its
// decayed budget give the paged fraction.
func (r *pricingRun) leakSeverity(node int, frac float64) float64 {
	var reserved int64
	for _, d := range r.live {
		if d.AggNode == node && d.Bytes > 0 {
			reserved += d.BufferBytes
		}
	}
	over := reserved - int64(float64(r.ctx.Avail[node])*(1-frac))
	if reserved <= 0 || over <= 0 {
		return 0
	}
	return min(float64(over)/float64(reserved), 1)
}

// detect runs the adaptive policy's detector at a boundary: it observes
// the per-target and per-node service signals, opens breakers on
// suspected targets, and moves work off suspected hosts before a hard
// fault makes the decision for it.
func (r *pricingRun) detect(now float64) error {
	inj, ad, tlr := r.Injector, r.Adaptive, r.tlr
	if ad == nil || ad.Detector == nil {
		return nil
	}
	unit := r.spec.DropTimeoutSeconds
	if unit <= 0 {
		unit = 0.01
	}
	for t := 0; t < r.ctx.FS.Targets; t++ {
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
	for n := 0; n < r.nodes; n++ {
		sig := inj.NodeSlowdown(n, now) +
			(inj.MsgDelaySeconds(n, now)+inj.NICDelaySeconds(n, now))/unit +
			4*r.node[n].leakSev
		wasSus := ad.Detector.Suspected("node", n)
		ad.Detector.Observe("node", n, sig)
		tlSuspicion(tlr, ad.Detector, "node", n, wasSus, now)
	}
	for _, n := range ad.Detector.SuspectedIDs("node") {
		if ad.handled[n] || len(r.itemsOn(n)) == 0 {
			continue
		}
		ad.handled[n] = true
		moved, err := r.hostEvent(faults.Event{Kind: faults.Straggler, Time: now, Node: n, Severity: 1}, true)
		if err != nil {
			return err
		}
		// A declined move (no live host to take the work) counts as
		// nothing: the node keeps its domains, its suspicion on record.
		if moved > 0 {
			r.res.ProactiveFailovers++
		}
	}
	return nil
}

// hostEvent applies one host-level event through the handler and
// returns how many reassignments it decided (a handler may lawfully
// decline a proactive move, and then nothing changes or is charged).
func (r *pricingRun) hostEvent(ev faults.Event, proactive bool) (int, error) {
	evKind := timeline.EvFailover
	if proactive {
		evKind = timeline.EvProactive
	}
	on := r.itemsOn(ev.Node)
	affected := make([]int, 0, len(on))
	for _, it := range on {
		affected = append(affected, it.Domain)
	}
	affected = dedupInts(affected)
	// The round in flight when the host died is lost: replay it. A
	// proactive move happens between rounds on a live host, so nothing
	// replays.
	for _, it := range on {
		if !proactive && it.Done > 0 {
			it.Done--
			r.res.ReplayedRounds++
		}
	}
	ras, err := r.Handler.OnHostFault(r.ctx, HostFault{Node: ev.Node, Kind: ev.Kind, Time: ev.Time,
		Severity: ev.Severity, Proactive: proactive}, r.live, affected)
	if err != nil {
		return 0, err
	}
	var stall float64
	var rec sim.AggRound
	for _, ra := range ras {
		if ra.StallSeconds > stall {
			stall = ra.StallSeconds
		}
		if ra.MergeInto >= 0 {
			// A merge moves extents only: the absorber's placement and
			// buffer, which its successors read, stay as they were.
			if err := applyReassignment(r.live, ra); err != nil {
				return 0, err
			}
			r.refold(&rec, ra.Domain, ra.MergeInto, true)
			r.res.Failovers++
			if r.tlr != nil {
				r.tlr.J().Record(ev.Time, evKind, timeline.Ent("node", ev.Node), fmt.Sprintf(
					"domain %d merged into %d (node %d)", ra.Domain, ra.MergeInto, r.live[ra.MergeInto].AggNode))
			}
			continue
		}
		// A standalone placement must name a domain, node and
		// aggregator rank the run has.
		if uint(ra.AggNode) >= uint(r.nodes) || uint(ra.Aggregator) >= uint(r.ctx.Topo.Size()) ||
			uint(ra.Domain) >= uint(len(r.live)) {
			return 0, fmt.Errorf("collio: domain %d re-placed on rank %d of node %d, outside %d ranks on %d nodes",
				ra.Domain, ra.Aggregator, ra.AggNode, r.ctx.Topo.Size(), r.nodes)
		}
		moved := r.live[ra.Domain].AggNode != ra.AggNode
		bufChanged := ra.BufferBytes > 0 && r.live[ra.Domain].BufferBytes != ra.BufferBytes
		if err := applyReassignment(r.live, ra); err != nil {
			return 0, err
		}
		nf := &r.node[ra.AggNode]
		if ra.PagedSeverity > nf.severity {
			nf.severity = ra.PagedSeverity
		}
		r.eng.SetNodePaged(ra.AggNode, nf.severity)
		if !moved && !bufChanged {
			r.res.Stalls++
			continue
		}
		r.refold(&rec, ra.Domain, ra.Domain, moved)
		r.res.Failovers++
		if r.tlr != nil {
			r.tlr.J().Record(ev.Time, evKind, timeline.Ent("node", ev.Node),
				fmt.Sprintf("domain %d re-placed on node %d", ra.Domain, ra.AggNode))
		}
	}
	if len(ras) > 0 {
		tlBufferGauges(r.ctx, r.live, ev.Time)
	}
	if stall > 0 {
		r.eng.AddRecoveryLatency(stall, ev.Kind.String())
	}
	if len(rec.Messages) > 0 {
		r.eng.RunAggRecoveryRound(rec)
	}
	return len(ras), nil
}

// refold retires every item bound to domain src and re-creates its
// remaining work bound to domain dst. With reExchange the surviving
// contributors re-ship their remaining extent lists to dst's aggregator
// in rec, the event's recovery round; every contributor of one folded
// item ships the same payload, so consecutive same-node senders bundle
// into one message (all hot, each contributor sends its own).
func (r *pricingRun) refold(rec *sim.AggRound, src, dst int, reExchange bool) {
	// Snapshot the length: folding appends successors, and when src ==
	// dst (an in-place re-placement) a successor would match the filter
	// and fold itself forever.
	n := len(r.items)
	for ii := 0; ii < n; ii++ {
		it := r.items[ii]
		if it.Domain != src || !it.Active() {
			continue
		}
		nit := it.fold(dst, r.live)
		it.Done = it.Rounds // retire
		if nit == nil {
			continue
		}
		r.items = append(r.items, nit)
		if !reExchange {
			continue
		}
		bytes := nit.recoveryMetaBytes()
		dstNode := r.live[dst].AggNode
		for _, c := range nit.rankContribs() {
			if k := len(rec.Messages); k > 0 && !r.allHot {
				if m := &rec.Messages[k-1]; m.SrcNode == c.Node && m.DstNode == dstNode {
					m.Bytes += bytes
					m.Count++
					continue
				}
			}
			rec.Messages = append(rec.Messages, sim.AggMessage{SrcNode: c.Node, DstNode: dstNode, Bytes: bytes, Count: 1})
		}
	}
}

// decideHot decides the round's hot set and reports whether any target
// is hot: every node and target in an all-hot run (the adaptive
// policy's breakers among them), those with live injector state in a
// run with an injector, and none in a clean run.
func (r *pricingRun) decideHot(now float64) bool {
	for n := range r.hot {
		r.hot[n] = r.allHot || r.Injector.MessageHot(n, now)
	}
	anyHot := false
	for t := range r.tgtHot {
		r.tgtHot[t] = r.allHot || r.Injector.StorageHot(t, now)
		anyHot = anyHot || r.tgtHot[t]
	}
	return anyHot
}

// itemHot reports whether any of the item's messages this round leaves
// a hot node: the aggregator node on reads (every message originates
// there), any contributing node on writes.
func (r *pricingRun) itemHot(it *faultItem, d *Domain) bool {
	if r.allHot || r.hot == nil {
		return r.allHot
	}
	if r.op == Read {
		return r.hot[d.AggNode]
	}
	aggs, _ := it.nodeAggs()
	for i := range aggs {
		if r.hot[aggs[i].Node] {
			return true
		}
	}
	return false
}

// assemble builds the round: each active item's next shuffle step and
// storage step.
func (r *pricingRun) assemble(now float64) {
	anyTgtHot := r.decideHot(now)
	r.round.Messages = r.round.Messages[:0]
	r.round.IOOps = r.round.IOOps[:0]
	r.extraLat = 0
	for _, it := range r.active {
		d := &r.live[it.Domain]
		r.assembleShuffle(it, d, now)
		r.assembleStorage(it, d, anyTgtHot, now)
		it.Done++
	}
}

// assembleShuffle adds the item's shuffle step. A hot item walks its
// hot sources per rank, in contributor order, through the message hook;
// the other sources go as one bundle per node.
func (r *pricingRun) assembleShuffle(it *faultItem, d *Domain, now float64) {
	s, hot := it.Done, r.itemHot(it, d)
	if hot {
		for _, c := range it.rankContribs() {
			m := sim.AggMessage{SrcNode: c.Node, DstNode: d.AggNode, Bytes: evenShare(c.Bytes, s, it.Rounds), Count: 1}
			if r.op == Read {
				m.SrcNode, m.DstNode = m.DstNode, m.SrcNode
			}
			// A cold source's queries are no-ops and add no latency: it
			// goes in the bundles below.
			if m.Bytes == 0 || !r.hot[m.SrcNode] {
				continue
			}
			if r.Injector != nil {
				r.message(m, now)
			}
			r.round.Messages = append(r.round.Messages, m)
		}
	}
	if r.allHot || (r.op == Read && hot) {
		return
	}
	aggs, cur := it.nodeAggs()
	msgs := r.round.Messages
	for i := range aggs {
		nc := &aggs[i]
		if hot && r.hot[nc.Node] {
			continue
		}
		bytes, n := nc.share(&cur[i], s)
		if bytes == 0 {
			continue
		}
		m := sim.AggMessage{SrcNode: nc.Node, DstNode: d.AggNode, Bytes: bytes, Count: n}
		if r.op == Read {
			m.SrcNode, m.DstNode = m.DstNode, m.SrcNode
		}
		msgs = append(msgs, m)
	}
	r.round.Messages = msgs
}

// assembleStorage adds the item's storage step: its slice through the
// collective buffer, staggered cyclically across domains (aggregators
// do not run in lockstep on a real machine, and without the stagger,
// stripe-cycle-aligned domains would hit the same target every round).
// Each stripe span goes to the engine whole; a hot target is split out
// of it and passes the access hook on its own, in Map order.
func (r *pricingRun) assembleStorage(it *faultItem, d *Domain, anyTgtHot bool, now float64) {
	idx := (it.Done + it.Rot) % it.Rounds
	r.slice = pfs.SliceDataAppend(r.slice[:0], it.Base, int64(idx)*it.Buf, it.Buf)
	ops := r.round.IOOps
	for _, acc := range r.mapper.Map(r.slice) {
		io := sim.IOOp{Target: acc.Target, Count: acc.Count, Node: d.AggNode, Bytes: acc.Bytes,
			Requests: acc.Requests, Contiguous: acc.Contiguous, Write: r.op == Write}
		if !anyTgtHot {
			ops = append(ops, io)
			continue
		}
		for t, end := acc.Target, acc.Target+acc.Count; t < end; {
			h := t // the first hot target at or after t, or end
			for h < end && !r.tgtHot[h] {
				h++
			}
			if h > t {
				io.Target, io.Count = t, h-t
				ops = append(ops, io)
			}
			if h == end {
				break
			}
			one := io
			one.Target, one.Count = h, 1
			if r.Injector != nil {
				r.access(&one, now)
			}
			ops = append(ops, one)
			t = h + 1
		}
	}
	r.round.IOOps = ops
}

// message applies the message-level fault state to one per-rank shuffle
// message from a hot node and charges the round its extra latency:
// delay windows (hedged under the adaptive policy), then drops,
// flaky-NIC drops and corrupted messages, each resent after the drop
// timeout. Every resend moves the bytes again.
func (r *pricingRun) message(m sim.AggMessage, now float64) {
	inj, ad, res := r.Injector, r.Adaptive, r.res
	delay := inj.MsgDelaySeconds(m.SrcNode, now) + inj.NICDelaySeconds(m.SrcNode, now)
	if delay > 0 {
		charged := delay
		if ad != nil {
			if dl, armed := ad.hedgeDeadline(r.spec.DropTimeoutSeconds); armed && dl < delay {
				// Hedge the straggler: at the quantile deadline a
				// duplicate re-request goes out and the first arrival
				// wins. The duplicate's bytes move on the wire but the
				// checksum path discards the loser, so they never reach
				// user accounting.
				charged = dl
				r.round.Messages = append(r.round.Messages, m)
				res.HedgedMessages++
				res.HedgedBytes += m.Bytes
				res.DedupedBytes += m.Bytes
				if r.tlr != nil {
					r.tlr.J().Record(now, timeline.EvHedge, timeline.Ent("node", m.SrcNode),
						fmt.Sprintf("%d bytes re-requested", m.Bytes))
				}
			}
		}
		r.extraLat += charged
		res.DelayedMessages++
	}
	if ad != nil {
		ad.window.Add(delay)
	}
	if inj.TakeDrop(m.SrcNode) {
		r.round.Messages = append(r.round.Messages, m)
		r.extraLat += r.spec.DropTimeoutSeconds
		res.DroppedMessages++
	}
	if inj.TakeNICDrop(m.SrcNode, now) {
		r.round.Messages = append(r.round.Messages, m)
		r.extraLat += r.spec.DropTimeoutSeconds
		res.DroppedMessages++
		res.FlakyDrops++
	}
	if inj.TakeMsgFlip(m.SrcNode) {
		r.round.Messages = append(r.round.Messages, m)
		r.extraLat += r.spec.DropTimeoutSeconds
		res.CorruptedMessages++
		if r.tlr != nil {
			r.tlr.J().Record(now, timeline.EvRepair, timeline.Ent("node", m.SrcNode),
				fmt.Sprintf("corrupted message re-requested (%d bytes)", m.Bytes))
		}
	}
}

// access applies the storage fault state to one access. An open breaker
// fails fast into degraded service: the access skips the retry ladder
// and pays only the degraded streaming factor. Otherwise the target's
// retry ladder and degraded mode apply, and the access feeds the
// breaker. A torn write is caught by the read-back verify and re-issued:
// one extra request on the target.
func (r *pricingRun) access(io *sim.IOOp, now float64) {
	inj, ad, tlr := r.Injector, r.Adaptive, r.tlr
	fastFail := false
	if ad != nil {
		// Allow may move the breaker Open -> HalfOpen at the probe
		// deadline; the state diff journals it.
		before := ad.Breakers.State(io.Target)
		fastFail = !ad.Breakers.Allow(io.Target, now)
		tlBreakerEvent(tlr, before, ad.Breakers.State(io.Target), io.Target, now)
	}
	if fastFail {
		io.DelaySeconds = float64(io.Bytes) / r.ioBW * (max(r.spec.DegradedFactor, 1) - 1)
		io.Degraded = true
	} else {
		retries, backoff, degraded := inj.OSTPenalty(io.Target, now)
		io.DelaySeconds = backoff
		if degraded {
			io.DelaySeconds += float64(io.Bytes) / r.ioBW * (r.spec.DegradedFactor - 1)
		}
		io.Requests += retries
		r.res.StorageRetries += retries
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
	if r.op == Write && inj.TakeTornWrite(io.Target) {
		io.Requests++
		r.res.TornWrites++
		if tlr != nil {
			tlr.J().Record(now, timeline.EvRepair, timeline.Ent("ost", io.Target), "torn write re-issued")
		}
	}
}

// finish builds each direction's result, in the order the run was
// given them.
func (r *pricingRun) finish() []*FaultResult {
	if cap(r.round.Messages) != r.msgCap || cap(r.round.IOOps) != r.ioCap {
		regrownRuns.Add(1)
	}
	paged := 0
	buffers := make([]float64, 0, len(r.plan.Domains))
	for _, d := range r.plan.Domains {
		buffers = append(buffers, float64(d.BufferBytes))
		if d.PagedSeverity > 0 {
			paged++
		}
	}
	summary := stats.Summarize(buffers)
	out := []*FaultResult{r.result(r.direction, paged, summary)}
	if r.mirror != nil {
		out = append(out, r.result(*r.mirror, paged, summary))
	}
	return out
}

// result builds direction d's result from its engine, with the plan's
// paged aggregator count and buffer summary, and, under an observer,
// its span and fault counters.
func (r *pricingRun) result(d direction, paged int, buffers stats.Summary) *FaultResult {
	plan, res := r.plan, d.res
	userBytes := plan.TotalBytes()
	if r.ctx.Obs != nil {
		name := plan.Strategy + " " + d.op.String()
		if r.Injector != nil {
			name += " (faults)"
		}
		span := r.ctx.Obs.Tracer().Begin(r.pid, sim.TIDTimeline, name, 0,
			obs.A("groups", strconv.Itoa(plan.Groups)),
			obs.A("domains", strconv.Itoa(len(plan.Domains))),
			obs.A("rounds", strconv.Itoa(r.executed)),
			obs.A("user_bytes", strconv.FormatInt(userBytes, 10)))
		span.End(d.eng.Elapsed())
	}
	totals := d.eng.Totals()
	res.CostResult = CostResult{Strategy: plan.Strategy, Op: d.op, UserBytes: userBytes,
		Seconds: d.eng.Elapsed(), Bandwidth: d.eng.Bandwidth(userBytes), Totals: totals,
		Aggregators: len(plan.Aggregators()), Domains: len(plan.Domains), Groups: plan.Groups, MaxRounds: r.executed,
		PagedAggregators: paged, BufferSummary: buffers}
	if r.opt.Trace {
		res.Trace = d.eng.TakeTrace()
	}
	if r.Injector == nil {
		res.Injected = map[string]int{}
		return res
	}
	res.Injected = r.Injector.Counts()
	res.RecoverySeconds = totals.RecoverySeconds
	if r.Adaptive != nil {
		res.SuspectEvents = r.Adaptive.Detector.Transitions()
		res.BreakerOpens = r.Adaptive.Breakers.Opens()
		res.BreakerFastFails = r.Adaptive.Breakers.FastFails()
	}
	o := r.ctx.Obs
	if o == nil {
		return res
	}
	o.Counter("faults.failovers", r.base...).Add(int64(res.Failovers))
	o.Counter("faults.stalls", r.base...).Add(int64(res.Stalls))
	o.Counter("faults.replayed_rounds", r.base...).Add(int64(res.ReplayedRounds))
	o.Counter("faults.storage_retries", r.base...).Add(int64(res.StorageRetries))
	o.Counter("faults.dropped_messages", r.base...).Add(int64(res.DroppedMessages))
	o.Counter("faults.delayed_messages", r.base...).Add(int64(res.DelayedMessages))
	o.Counter("faults.corrupted_messages", r.base...).Add(int64(res.CorruptedMessages))
	o.Counter("faults.torn_writes", r.base...).Add(int64(res.TornWrites))
	o.Counter("faults.flaky_drops", r.base...).Add(int64(res.FlakyDrops))
	o.Counter("faults.leaked_nodes", r.base...).Add(int64(res.LeakedNodes))
	if r.Adaptive != nil {
		o.Counter("faults.hedged_messages", r.base...).Add(int64(res.HedgedMessages))
		o.Counter("faults.hedged_bytes", r.base...).Add(res.HedgedBytes)
		o.Counter("faults.deduped_bytes", r.base...).Add(res.DedupedBytes)
		o.Counter("faults.proactive_failovers", r.base...).Add(int64(res.ProactiveFailovers))
	}
	return res
}
