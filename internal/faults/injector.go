package faults

import (
	"sort"

	"mcio/internal/obs"
)

// Injector replays a Plan against a simulated clock. The cost loop
// calls Advance at each round boundary to learn which events fired
// since the last boundary, then queries per-node and per-target state
// while building the round. All methods are deterministic given the
// same call sequence; the Injector is not safe for concurrent use.
type Injector struct {
	spec   Spec
	events []Event
	next   int
	now    float64

	dead         map[int]bool    // crashed hosts
	stragglerEnd map[int]float64 // node -> window end
	stragglerFac map[int]float64 // node -> slowdown factor
	delayEnd     map[int]float64 // node -> msg-delay window end
	delaySec     map[int]float64 // node -> seconds added per message
	dropPending  map[int]int     // node -> undelivered drop events
	flipPending  map[int]int     // node -> unconsumed bit-flip events
	tornPending  map[int]int     // target -> unconsumed torn-write events
	ostWindowEnd map[int]float64 // target -> transient-error window end
	ostDegraded  map[int]bool    // target -> permanently degraded
	// ostPermAt is the scheduled time of each target's earliest
	// OSTPermanent event, precomputed so queries between round
	// boundaries see the degradation at event time, not at the next
	// Advance (retry ladders walk forward in time mid-round).
	ostPermAt map[int]float64
	// ostLadderPaid is how far into simulated time each target's retry
	// ladder has already walked: later accesses in the same round resume
	// from here instead of re-paying the ladder from the round boundary,
	// so a target that recovers mid-round is seen as recovered.
	ostLadderPaid map[int]float64

	// Gray-failure windows.
	slowStart map[int]float64 // target -> slowdown window start
	slowEnd   map[int]float64 // target -> slowdown window end
	slowFac   map[int]float64 // target -> peak service-time multiplier
	slowProf  map[int]Profile // target -> degradation curve shape
	nicStart  map[int]float64 // node -> flaky window start
	nicEnd    map[int]float64 // node -> flaky window end
	nicSec    map[int]float64 // node -> latency added per message
	nicEvery  map[int]int     // node -> every k-th in-window message dropped
	nicSeen   map[int]int     // node -> in-window messages observed so far
	leaks     map[int][]Event // node -> leak onsets (rare; summed on query)

	counts    map[Kind]int
	escalated int // transient windows that exhausted the retry budget

	o        *obs.Observer
	injected map[Kind]*obs.Counter
}

// NewInjector builds an injector for plan. A nil plan yields an empty
// injector (Empty reports true and every query is a no-op).
func NewInjector(plan *Plan) *Injector {
	in := &Injector{
		dead:          map[int]bool{},
		stragglerEnd:  map[int]float64{},
		stragglerFac:  map[int]float64{},
		delayEnd:      map[int]float64{},
		delaySec:      map[int]float64{},
		dropPending:   map[int]int{},
		flipPending:   map[int]int{},
		tornPending:   map[int]int{},
		ostWindowEnd:  map[int]float64{},
		ostDegraded:   map[int]bool{},
		ostPermAt:     map[int]float64{},
		ostLadderPaid: map[int]float64{},
		slowStart:     map[int]float64{},
		slowEnd:       map[int]float64{},
		slowFac:       map[int]float64{},
		slowProf:      map[int]Profile{},
		nicStart:      map[int]float64{},
		nicEnd:        map[int]float64{},
		nicSec:        map[int]float64{},
		nicEvery:      map[int]int{},
		nicSeen:       map[int]int{},
		leaks:         map[int][]Event{},
		counts:        map[Kind]int{},
		injected:      map[Kind]*obs.Counter{},
	}
	if plan != nil {
		in.spec = plan.Spec
		in.events = plan.Events
		for _, ev := range plan.Events {
			if ev.Kind != OSTPermanent {
				continue
			}
			if at, ok := in.ostPermAt[ev.Target]; !ok || ev.Time < at {
				in.ostPermAt[ev.Target] = ev.Time
			}
		}
	}
	return in
}

// Spec returns the spec the injector's plan was generated from.
func (in *Injector) Spec() Spec { return in.spec }

// Empty reports whether the injector has no events at all; callers use
// it to price a fault-free run (identical to no injector).
func (in *Injector) Empty() bool { return in == nil || len(in.events) == 0 }

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
	switch ev.Kind {
	case NodeCrash:
		in.dead[ev.Node] = true
	case MemCollapse:
		// State lives with the FaultHandler (it owns the memory model);
		// the injector only counts and reports the event.
	case Straggler:
		end := ev.Time + ev.Duration
		if end > in.stragglerEnd[ev.Node] {
			in.stragglerEnd[ev.Node] = end
			in.stragglerFac[ev.Node] = ev.Severity
		}
	case MsgDelay:
		end := ev.Time + ev.Duration
		if end > in.delayEnd[ev.Node] {
			in.delayEnd[ev.Node] = end
			in.delaySec[ev.Node] = ev.Severity
		}
	case MsgDrop:
		in.dropPending[ev.Node]++
	case MsgBitFlip:
		in.flipPending[ev.Node]++
	case TornWrite:
		in.tornPending[ev.Target]++
	case OSTTransient:
		end := ev.Time + ev.Duration
		if end > in.ostWindowEnd[ev.Target] {
			in.ostWindowEnd[ev.Target] = end
		}
	case OSTPermanent:
		in.ostDegraded[ev.Target] = true
	case OSTSlowdown:
		end := ev.Time + ev.Duration
		if end > in.slowEnd[ev.Target] {
			in.slowStart[ev.Target] = ev.Time
			in.slowEnd[ev.Target] = end
			in.slowFac[ev.Target] = ev.Severity
			in.slowProf[ev.Target] = ev.Profile
		}
	case NICFlaky:
		end := ev.Time + ev.Duration
		if end > in.nicEnd[ev.Node] {
			in.nicStart[ev.Node] = ev.Time
			in.nicEnd[ev.Node] = end
			in.nicSec[ev.Node] = ev.Severity
			in.nicEvery[ev.Node] = in.spec.NICFlakyDropEvery
		}
	case MemLeak:
		in.leaks[ev.Node] = append(in.leaks[ev.Node], ev)
	}
}

// NodeDead reports whether node has crashed as of the last Advance.
func (in *Injector) NodeDead(node int) bool {
	return in != nil && in.dead[node]
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
	if in == nil {
		return 1
	}
	if end, ok := in.stragglerEnd[node]; ok && now < end {
		return in.stragglerFac[node]
	}
	return 1
}

// MsgDelaySeconds returns the per-message latency added to messages
// leaving node at time now (0 when healthy).
func (in *Injector) MsgDelaySeconds(node int, now float64) float64 {
	if in == nil {
		return 0
	}
	if end, ok := in.delayEnd[node]; ok && now < end {
		return in.delaySec[node]
	}
	return 0
}

// TakeDrop consumes one pending message drop on node, reporting whether
// a message leaving it is lost. Each MsgDrop event loses exactly one
// message; consumption order is the (deterministic) query order.
func (in *Injector) TakeDrop(node int) bool {
	if in == nil || in.dropPending[node] == 0 {
		return false
	}
	in.dropPending[node]--
	return true
}

// TakeMsgFlip consumes one pending silent bit flip on node, reporting
// whether a message leaving it arrives corrupted. Like TakeDrop, each
// MsgBitFlip event corrupts exactly one message, in deterministic query
// order.
func (in *Injector) TakeMsgFlip(node int) bool {
	if in == nil || in.flipPending[node] == 0 {
		return false
	}
	in.flipPending[node]--
	return true
}

// PendingDrops returns how many unconsumed MsgDrop events node carries.
// While it is zero, TakeDrop on the node is a no-op returning false, so
// the pricing loop can bundle the messages of nodes with no pending
// drops without changing any state or result.
func (in *Injector) PendingDrops(node int) int {
	if in == nil {
		return 0
	}
	return in.dropPending[node]
}

// PendingFlips is PendingDrops's counterpart for MsgBitFlip events:
// while zero, TakeMsgFlip on the node is a pure no-op.
func (in *Injector) PendingFlips(node int) int {
	if in == nil {
		return 0
	}
	return in.flipPending[node]
}

// NICDropActive reports whether TakeNICDrop on node at time now is
// stateful: inside a flaky-NIC window with a positive drop cadence,
// every query advances the node's in-window message counter. Outside
// such a window (or with cadence 0) TakeNICDrop is a pure no-op, which
// is what lets the pricing loop bundle healthy nodes' messages.
func (in *Injector) NICDropActive(node int, now float64) bool {
	if in == nil {
		return false
	}
	end, ok := in.nicEnd[node]
	return ok && now < end && now >= in.nicStart[node] && in.nicEvery[node] > 0
}

// TakeTornWrite consumes one pending torn write on target, reporting
// whether an object write there lands truncated. Each TornWrite event
// tears exactly one access, in deterministic query order.
func (in *Injector) TakeTornWrite(target int) bool {
	if in == nil || in.tornPending[target] == 0 {
		return false
	}
	in.tornPending[target]--
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
	if in == nil {
		return 0, 0, false
	}
	// An OSTPermanent event scheduled at or before the query time degrades
	// the target immediately, even when the round boundary that will
	// formally apply (and count) it hasn't been reached yet: accesses and
	// retry ladders walk forward in time mid-round and must see the
	// degradation deterministically at event time, not a boundary late.
	if at, ok := in.ostPermAt[target]; ok && now >= at {
		in.ostDegraded[target] = true
	}
	if end, ok := in.ostWindowEnd[target]; ok && now < end {
		// Resume from wherever the target's ladder already got to this
		// round; a cursor at or past the window end means the target
		// recovered mid-round and the access succeeds first try.
		start := now
		if paid := in.ostLadderPaid[target]; paid > start {
			start = paid
		}
		if start >= end {
			return 0, 0, in.ostDegraded[target]
		}
		step := in.spec.RetryBackoff
		if step <= 0 {
			step = 1e-4
		}
		max := in.spec.MaxRetries
		if max < 1 {
			max = 1
		}
		for retries < max && start+backoffSeconds < end {
			backoffSeconds += step
			step *= 2
			retries++
			// A ladder that backs off past the scheduled permanent failure
			// finishes against a degraded target.
			if at, ok := in.ostPermAt[target]; ok && start+backoffSeconds >= at {
				in.ostDegraded[target] = true
			}
		}
		if cursor := start + backoffSeconds; cursor > in.ostLadderPaid[target] {
			in.ostLadderPaid[target] = cursor
		}
		if start+backoffSeconds < end && !in.ostDegraded[target] {
			// Retry budget exhausted inside the window: the target is
			// failed over to degraded service for the rest of the run.
			in.ostDegraded[target] = true
			in.escalated++
		}
	}
	return retries, backoffSeconds, in.ostDegraded[target]
}

// OSTWindowActive reports whether target is inside a transient-error
// window at time now, without walking (or charging) the retry ladder.
// Circuit breakers use it to probe schedule state cheaply.
func (in *Injector) OSTWindowActive(target int, now float64) bool {
	if in == nil {
		return false
	}
	end, ok := in.ostWindowEnd[target]
	return ok && now < end
}

// OSTSlowdownFactor returns the gray service-time multiplier for target
// at time now: 1 when healthy, otherwise the window's severity shaped
// by its degradation profile (step holds peak, drip ramps linearly,
// flap alternates healthy/degraded eighths of the window).
func (in *Injector) OSTSlowdownFactor(target int, now float64) float64 {
	if in == nil {
		return 1
	}
	end, ok := in.slowEnd[target]
	if !ok || now >= end || now < in.slowStart[target] {
		return 1
	}
	start := in.slowStart[target]
	peak := in.slowFac[target]
	if peak <= 1 {
		return 1
	}
	frac := (now - start) / (end - start)
	switch in.slowProf[target] {
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
	if in == nil {
		return 0
	}
	if end, ok := in.nicEnd[node]; ok && now < end && now >= in.nicStart[node] {
		return in.nicSec[node]
	}
	return 0
}

// TakeNICDrop reports whether a message leaving node at time now is
// lost to its flaky NIC: while inside a flaky window, every k-th
// message observed (deterministic query order) is dropped. Unlike
// TakeDrop there is no fixed per-event budget — the burst lasts as long
// as the window does.
func (in *Injector) TakeNICDrop(node int, now float64) bool {
	if in == nil {
		return false
	}
	end, ok := in.nicEnd[node]
	if !ok || now >= end || now < in.nicStart[node] {
		return false
	}
	every := in.nicEvery[node]
	if every <= 0 {
		return false
	}
	in.nicSeen[node]++
	return in.nicSeen[node]%every == 0
}

// MemLeakFraction returns the cumulative fraction of node's memory
// budget lost to leaks by time now: each leak ramps linearly from 0 at
// onset to its severity over its duration, contributions sum, and the
// total clamps at 0.95 so a leaking node keeps a sliver of budget (the
// leak is gray — the node never actually dies).
func (in *Injector) MemLeakFraction(node int, now float64) float64 {
	if in == nil {
		return 0
	}
	total := 0.0
	for _, ev := range in.leaks[node] {
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
