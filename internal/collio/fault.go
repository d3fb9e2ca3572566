package collio

import (
	"fmt"

	"mcio/internal/faults"
	"mcio/internal/pfs"
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
	// Hedging accounting (adaptive runs only). A hedged message's bytes
	// move twice — original and re-request — and the checksum path
	// discards the loser, so DedupedBytes never reach user accounting.
	HedgedMessages int
	HedgedBytes    int64
	DedupedBytes   int64
	// Adaptive-failover accounting (adaptive runs only).
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
// bookkeeping a faulted CostShape performs: merges fold the victim's extents
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

// FaultEnv is the fault environment of one priced run; the zero value
// is the clean run.
type FaultEnv struct {
	// Injector advances the fault schedule in simulated time; nil or
	// empty prices a clean run.
	Injector *faults.Injector
	// Handler decides where the work of crashed or collapsed hosts goes.
	// A non-empty injector needs one.
	Handler FaultHandler
	// Adaptive, when non-nil, layers the health-driven response policy
	// on the faulted run; nil is the static retry-only policy.
	Adaptive *Adaptive
	// allHot walks every work item per rank, as if every node carried
	// live injector state. An adaptive run needs it (its hedge window
	// takes every message's delay, in per-rank order), so a non-nil
	// Adaptive sets it; the exactness tests price against it as the
	// reference.
	allHot bool
}
