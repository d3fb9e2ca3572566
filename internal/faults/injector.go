package faults

import (
	"math"
	"sort"

	"mcio/internal/obs"
)

// Injector replays a Plan against a simulated clock. The cost loop
// calls Advance at each round boundary to learn which events fired
// since the last boundary, then queries per-node and per-target state
// while building the round. All methods are deterministic given the
// same call sequence; the Injector is not safe for concurrent use.
//
// Per-node and per-target state is dense: one entry per ID up to the
// largest one the plan's events name, so the pricing loop's per-round
// queries over every node and target index a slice. An ID past the
// table carries no fault state. Times are simulated seconds, never
// negative; a window's end stays 0 until an event opens it.
type Injector struct {
	spec   Spec
	events []Event
	next   int
	now    float64

	dead    map[int]bool // crashed hosts
	nodes   []nodeFaults
	targets []targetFaults

	counts    map[Kind]int
	escalated int    // transient windows that exhausted the retry budget
	kinds     uint32 // bit k set when the plan holds an event of Kind k
	// msgFaulted marks the nodes the plan holds a message fault on; nil
	// when it holds none.
	msgFaulted []bool

	o        *obs.Observer
	injected map[Kind]*obs.Counter
}

// nodeFaults is one host's fault state.
type nodeFaults struct {
	stragglerEnd float64 // straggler window end
	stragglerFac float64 // straggler slowdown factor
	delayEnd     float64 // msg-delay window end
	delaySec     float64 // seconds added per message
	dropPending  int     // undelivered drop events
	flipPending  int     // unconsumed bit-flip events

	// Flaky-NIC window: latency added per message and every k-th
	// in-window message dropped, counted in nicSeen.
	nicStart, nicEnd float64
	nicSec           float64
	nicEvery         int
	nicSeen          int

	leaks []Event // leak onsets (rare; summed on query)
}

// targetFaults is one storage target's fault state.
type targetFaults struct {
	tornPending int     // unconsumed torn-write events
	windowEnd   float64 // transient-error window end
	degraded    bool    // permanently degraded
	// permAt is the scheduled time of the target's earliest
	// OSTPermanent event (+Inf when none), precomputed so queries
	// between round boundaries see the degradation at event time, not
	// at the next Advance (retry ladders walk forward in time
	// mid-round).
	permAt float64
	// ladderPaid is how far into simulated time the target's retry
	// ladder has already walked: later accesses in the same round
	// resume from here instead of re-paying the ladder from the round
	// boundary, so a target that recovers mid-round is seen as
	// recovered.
	ladderPaid float64

	// Gray slowdown window: start, end, peak service-time multiplier
	// and degradation curve shape.
	slowStart, slowEnd, slowFac float64
	slowProf                    Profile
}

// NewInjector builds an injector for plan. A nil plan yields an empty
// injector (Empty reports true and every query is a no-op).
func NewInjector(plan *Plan) *Injector {
	in := &Injector{
		dead:     map[int]bool{},
		counts:   map[Kind]int{},
		injected: map[Kind]*obs.Counter{},
	}
	if plan == nil {
		return in
	}
	in.spec = plan.Spec
	in.events = plan.Events
	nodes, targets := 0, 0
	for _, ev := range plan.Events {
		nodes, targets = max(nodes, ev.Node+1), max(targets, ev.Target+1)
		in.kinds |= 1 << ev.Kind
	}
	in.nodes = make([]nodeFaults, nodes)
	in.targets = make([]targetFaults, targets)
	for t := range in.targets {
		in.targets[t].permAt = math.Inf(1)
	}
	for _, ev := range plan.Events {
		if ts := in.target(ev.Target); ev.Kind == OSTPermanent && ts != nil {
			ts.permAt = min(ts.permAt, ev.Time)
		}
		switch ev.Kind {
		case MsgDelay, MsgDrop, MsgBitFlip, NICFlaky:
			if in.msgFaulted == nil {
				in.msgFaulted = make([]bool, nodes)
			}
			if ev.Node >= 0 {
				in.msgFaulted[ev.Node] = true
			}
		}
	}
	return in
}

// node returns node's state, nil when no event names it (or in is nil).
func (in *Injector) node(n int) *nodeFaults {
	if in == nil || uint(n) >= uint(len(in.nodes)) {
		return nil
	}
	return &in.nodes[n]
}

// target is node's counterpart for storage targets.
func (in *Injector) target(t int) *targetFaults {
	if in == nil || uint(t) >= uint(len(in.targets)) {
		return nil
	}
	return &in.targets[t]
}

// Spec returns the spec the injector's plan was generated from.
func (in *Injector) Spec() Spec { return in.spec }

// Empty reports whether the injector has no events at all; callers use
// it to price a fault-free run (identical to no injector).
func (in *Injector) Empty() bool { return in == nil || len(in.events) == 0 }

// Holds reports whether the injector's plan holds an event of any of
// kinds. Where it holds none of a fault family, every per-node or
// per-target query of that family answers healthy for the whole run, so
// the pricing loop skips those scans.
func (in *Injector) Holds(kinds ...Kind) bool {
	if in == nil {
		return false
	}
	for _, k := range kinds {
		if in.kinds&(1<<k) != 0 {
			return true
		}
	}
	return false
}

// SetObserver attaches metrics; injected events are counted under
// faults.injected{kind}.
func (in *Injector) SetObserver(o *obs.Observer) {
	if in == nil {
		return
	}
	in.o = o
	in.injected = map[Kind]*obs.Counter{}
}

// Advance moves the fault clock to now (simulated seconds) and returns
// the events that fired in (previous, now], already applied to the
// injector's per-node and per-target state. Time never moves backward.
func (in *Injector) Advance(now float64) []Event {
	if in == nil {
		return nil
	}
	if now < in.now {
		now = in.now
	}
	in.now = now
	var fired []Event
	for in.next < len(in.events) && in.events[in.next].Time <= now {
		ev := in.events[in.next]
		in.next++
		in.apply(ev)
		fired = append(fired, ev)
	}
	return fired
}

func (in *Injector) apply(ev Event) {
	in.counts[ev.Kind]++
	if in.o != nil {
		c := in.injected[ev.Kind]
		if c == nil {
			c = in.o.Counter("faults.injected", obs.L("kind", ev.Kind.String()))
			in.injected[ev.Kind] = c
		}
		c.Inc()
	}
	if ev.Kind == NodeCrash {
		in.dead[ev.Node] = true
	}
	// MemCollapse state lives with the FaultHandler (it owns the memory
	// model); the injector only counts and reports the event.
	if ns := in.node(ev.Node); ns != nil {
		switch ev.Kind {
		case Straggler:
			if end := ev.Time + ev.Duration; end > ns.stragglerEnd {
				ns.stragglerEnd, ns.stragglerFac = end, ev.Severity
			}
		case MsgDelay:
			if end := ev.Time + ev.Duration; end > ns.delayEnd {
				ns.delayEnd, ns.delaySec = end, ev.Severity
			}
		case MsgDrop:
			ns.dropPending++
		case MsgBitFlip:
			ns.flipPending++
		case NICFlaky:
			if end := ev.Time + ev.Duration; end > ns.nicEnd {
				ns.nicStart, ns.nicEnd, ns.nicSec = ev.Time, end, ev.Severity
				ns.nicEvery = in.spec.NICFlakyDropEvery
			}
		case MemLeak:
			ns.leaks = append(ns.leaks, ev)
		}
	}
	if ts := in.target(ev.Target); ts != nil {
		switch ev.Kind {
		case TornWrite:
			ts.tornPending++
		case OSTTransient:
			ts.windowEnd = max(ts.windowEnd, ev.Time+ev.Duration)
		case OSTPermanent:
			ts.degraded = true
		case OSTSlowdown:
			if end := ev.Time + ev.Duration; end > ts.slowEnd {
				ts.slowStart, ts.slowEnd = ev.Time, end
				ts.slowFac, ts.slowProf = ev.Severity, ev.Profile
			}
		}
	}
}

// DeadNodes returns the crashed hosts in ascending order.
func (in *Injector) DeadNodes() []int {
	if in == nil {
		return nil
	}
	var out []int
	for n := range in.dead {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// NodeSlowdown returns the bandwidth divisor for node at time now: 1
// when healthy, the straggler factor while inside a straggler window.
func (in *Injector) NodeSlowdown(node int, now float64) float64 {
	if ns := in.node(node); ns != nil && now < ns.stragglerEnd {
		return ns.stragglerFac
	}
	return 1
}

// MsgDelaySeconds returns the per-message latency added to messages
// leaving node at time now (0 when healthy).
func (in *Injector) MsgDelaySeconds(node int, now float64) float64 {
	if ns := in.node(node); ns != nil && now < ns.delayEnd {
		return ns.delaySec
	}
	return 0
}

// TakeDrop consumes one pending message drop on node, reporting whether
// a message leaving it is lost. Each MsgDrop event loses exactly one
// message; consumption order is the (deterministic) query order.
func (in *Injector) TakeDrop(node int) bool {
	ns := in.node(node)
	if ns == nil || ns.dropPending == 0 {
		return false
	}
	ns.dropPending--
	return true
}

// TakeMsgFlip consumes one pending silent bit flip on node, reporting
// whether a message leaving it arrives corrupted. Like TakeDrop, each
// MsgBitFlip event corrupts exactly one message, in deterministic query
// order.
func (in *Injector) TakeMsgFlip(node int) bool {
	ns := in.node(node)
	if ns == nil || ns.flipPending == 0 {
		return false
	}
	ns.flipPending--
	return true
}

// pendingDrops returns how many unconsumed MsgDrop events node carries.
// While it is zero, TakeDrop on the node is a no-op returning false, so
// the pricing loop can bundle the messages of nodes with no pending
// drops without changing any state or result.
func (in *Injector) pendingDrops(node int) int {
	if ns := in.node(node); ns != nil {
		return ns.dropPending
	}
	return 0
}

// pendingFlips is pendingDrops's counterpart for MsgBitFlip events:
// while zero, TakeMsgFlip on the node is a pure no-op.
func (in *Injector) pendingFlips(node int) int {
	if ns := in.node(node); ns != nil {
		return ns.flipPending
	}
	return 0
}

// nicDropActive reports whether TakeNICDrop on node at time now is
// stateful: inside a flaky-NIC window with a positive drop cadence,
// every query advances the node's in-window message counter. Outside
// such a window (or with cadence 0) TakeNICDrop is a pure no-op, which
// is what lets the pricing loop bundle healthy nodes' messages.
func (in *Injector) nicDropActive(node int, now float64) bool {
	ns := in.node(node)
	return ns != nil && now < ns.nicEnd && now >= ns.nicStart && ns.nicEvery > 0
}

// MessageHot reports whether any message-level query on node at time
// now can charge or change anything: a delay window is open, drop or
// flip budgets are pending, or a flaky-NIC drop cadence is running.
// While it is false, MsgDelaySeconds and NICDelaySeconds are 0 and
// TakeDrop, TakeMsgFlip and TakeNICDrop are no-ops returning false, so
// the pricing loop bundles the node's messages.
func (in *Injector) MessageHot(node int, now float64) bool {
	return in.MsgDelaySeconds(node, now)+in.NICDelaySeconds(node, now) > 0 ||
		in.pendingDrops(node) > 0 || in.pendingFlips(node) > 0 || in.nicDropActive(node, now)
}

// MessageFaulted reports whether the schedule holds a message fault —
// a delay, drop, bit flip or flaky NIC — on node: whether MessageHot
// can ever be true for it.
func (in *Injector) MessageFaulted(node int) bool {
	return in != nil && uint(node) < uint(len(in.msgFaulted)) && in.msgFaulted[node]
}

// StorageHot is MessageHot's counterpart for storage target: whether a
// transient window is open at now, a permanent failure is due or
// applied, or torn writes are pending. While it is false, OSTPenalty
// returns no retries, no backoff and no degradation and changes no
// state, and TakeTornWrite is a no-op returning false, so the pricing
// loop prices the target's accesses in bulk.
func (in *Injector) StorageHot(target int, now float64) bool {
	ts := in.target(target)
	return ts != nil && (now < ts.windowEnd || now >= ts.permAt || ts.degraded || ts.tornPending > 0)
}

// TakeTornWrite consumes one pending torn write on target, reporting
// whether an object write there lands truncated. Each TornWrite event
// tears exactly one access, in deterministic query order.
func (in *Injector) TakeTornWrite(target int) bool {
	ts := in.target(target)
	if ts == nil || ts.tornPending == 0 {
		return false
	}
	ts.tornPending--
	return true
}

// OSTPenalty prices one access to target at time now: the number of
// retries the transient window costs, the total backoff seconds spent
// on them (the exponential ladder RetryBackoff, 2×, 4×, … until the
// window ends or MaxRetries is exhausted), and whether the target is
// (now) permanently degraded. A window that outlives the retry budget
// escalates the target to degraded.
//
// The ladder re-checks schedule state at each retry step: an earlier
// access in the same round may already have walked its backoff past the
// window's end, in which case the target has recovered in ladder time
// and later accesses pay nothing — they are not charged as if the
// target stayed failed until the next round boundary.
func (in *Injector) OSTPenalty(target int, now float64) (retries int, backoffSeconds float64, degraded bool) {
	ts := in.target(target)
	if ts == nil {
		return 0, 0, false
	}
	// An OSTPermanent event scheduled at or before the query time degrades
	// the target immediately, even when the round boundary that will
	// formally apply (and count) it hasn't been reached yet: accesses and
	// retry ladders walk forward in time mid-round and must see the
	// degradation deterministically at event time, not a boundary late.
	if now >= ts.permAt {
		ts.degraded = true
	}
	if end := ts.windowEnd; now < end {
		// Resume from wherever the target's ladder already got to this
		// round; a cursor at or past the window end means the target
		// recovered mid-round and the access succeeds first try.
		start := max(now, ts.ladderPaid)
		if start >= end {
			return 0, 0, ts.degraded
		}
		step := in.spec.RetryBackoff
		if step <= 0 {
			step = 1e-4
		}
		limit := max(in.spec.MaxRetries, 1)
		for retries < limit && start+backoffSeconds < end {
			backoffSeconds += step
			step *= 2
			retries++
			// A ladder that backs off past the scheduled permanent failure
			// finishes against a degraded target.
			if start+backoffSeconds >= ts.permAt {
				ts.degraded = true
			}
		}
		if cursor := start + backoffSeconds; cursor > ts.ladderPaid {
			ts.ladderPaid = cursor
		}
		if start+backoffSeconds < end && !ts.degraded {
			// Retry budget exhausted inside the window: the target is
			// failed over to degraded service for the rest of the run.
			ts.degraded = true
			in.escalated++
		}
	}
	return retries, backoffSeconds, ts.degraded
}

// OSTWindowActive reports whether target is inside a transient-error
// window at time now, without walking (or charging) the retry ladder.
// Circuit breakers use it to probe schedule state cheaply.
func (in *Injector) OSTWindowActive(target int, now float64) bool {
	ts := in.target(target)
	return ts != nil && now < ts.windowEnd
}

// OSTSlowdownFactor returns the gray service-time multiplier for target
// at time now: 1 when healthy, otherwise the window's severity shaped
// by its degradation profile (step holds peak, drip ramps linearly,
// flap alternates healthy/degraded eighths of the window).
func (in *Injector) OSTSlowdownFactor(target int, now float64) float64 {
	ts := in.target(target)
	if ts == nil || now >= ts.slowEnd || now < ts.slowStart {
		return 1
	}
	start, end, peak := ts.slowStart, ts.slowEnd, ts.slowFac
	if peak <= 1 {
		return 1
	}
	frac := (now - start) / (end - start)
	switch ts.slowProf {
	case ProfileDrip:
		return 1 + (peak-1)*frac
	case ProfileFlap:
		if int(frac*8)%2 == 1 {
			return 1
		}
		return peak
	default: // ProfileStep
		return peak
	}
}

// NICDelaySeconds returns the gray per-message latency added to
// messages leaving node at time now (0 when healthy). It stacks with
// MsgDelaySeconds: a flaky NIC inside a hard delay window pays both.
func (in *Injector) NICDelaySeconds(node int, now float64) float64 {
	if ns := in.node(node); ns != nil && now < ns.nicEnd && now >= ns.nicStart {
		return ns.nicSec
	}
	return 0
}

// TakeNICDrop reports whether a message leaving node at time now is
// lost to its flaky NIC: while inside a flaky window, every k-th
// message observed (deterministic query order) is dropped. Unlike
// TakeDrop there is no fixed per-event budget — the burst lasts as long
// as the window does.
func (in *Injector) TakeNICDrop(node int, now float64) bool {
	if !in.nicDropActive(node, now) {
		return false
	}
	ns := &in.nodes[node]
	ns.nicSeen++
	return ns.nicSeen%ns.nicEvery == 0
}

// MemLeakFraction returns the cumulative fraction of node's memory
// budget lost to leaks by time now: each leak ramps linearly from 0 at
// onset to its severity over its duration, contributions sum, and the
// total clamps at 0.95 so a leaking node keeps a sliver of budget (the
// leak is gray — the node never actually dies).
func (in *Injector) MemLeakFraction(node int, now float64) float64 {
	ns := in.node(node)
	if ns == nil {
		return 0
	}
	total := 0.0
	for _, ev := range ns.leaks {
		if now <= ev.Time {
			continue
		}
		frac := 1.0
		if ev.Duration > 0 {
			frac = (now - ev.Time) / ev.Duration
			if frac > 1 {
				frac = 1
			}
		}
		total += ev.Severity * frac
	}
	if total > 0.95 {
		total = 0.95
	}
	return total
}

// Counts returns how many events of each kind have fired so far, keyed
// by Kind.String() for reporting.
func (in *Injector) Counts() map[string]int {
	out := map[string]int{}
	if in == nil {
		return out
	}
	for k, n := range in.counts {
		out[k.String()] = n
	}
	return out
}

// Escalations returns how many transient OST windows exhausted the
// retry budget and escalated to permanent degradation.
func (in *Injector) Escalations() int {
	if in == nil {
		return 0
	}
	return in.escalated
}
