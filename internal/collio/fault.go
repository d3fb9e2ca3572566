package collio

import (
	"fmt"

	"mcio/internal/faults"
	"mcio/internal/pfs"
	"mcio/internal/sim"
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
	return costSet(ctx, plan, NewRequestSet(reqs), op, opt, faultEnv{inj: inj, handler: handler})
}

// CostWithFaultsShape is CostWithFaults for the requests of rs, priced
// from sh, the prebuilt shape of plan over rs. Neither is changed, so a
// fault grid builds its plan and shape once and prices every cell from
// them, each with its own injector and handler. sh must have been built
// from plan, as for CostShape.
func CostWithFaultsShape(ctx *Context, plan *Plan, sh *Shape, rs *RequestSet, op Op, opt sim.Options,
	inj *faults.Injector, handler FaultHandler) (*FaultResult, error) {
	if err := sh.check(plan); err != nil {
		return nil, err
	}
	return costFaulted(ctx, plan, sh, rs, op, opt, faultEnv{inj: inj, handler: handler})
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

// costSet builds plan's shape over rs and prices it under env.
func costSet(ctx *Context, plan *Plan, rs *RequestSet, op Op, opt sim.Options, env faultEnv) (*FaultResult, error) {
	sh, err := BuildShapeSet(ctx, plan, rs)
	if err != nil {
		return nil, err
	}
	return costFaulted(ctx, plan, sh, rs, op, opt, env)
}

// costFaulted is the entry behind Cost, CostWithFaults (the static
// retry-only policy) and CostAdaptive (health observation, circuit
// breakers, hedging and proactive failover), pricing plan from sh, its
// shape over rs. Fault *pricing* — including the gray kinds — is
// identical either way; only the response policy differs. An empty
// injector prices a clean run.
func costFaulted(ctx *Context, plan *Plan, sh *Shape, rs *RequestSet, op Op, opt sim.Options, env faultEnv) (*FaultResult, error) {
	if env.inj.Empty() {
		env.inj, env.handler, env.ad = nil, nil, nil
	} else if env.handler == nil {
		return nil, fmt.Errorf("collio: fault injection without a FaultHandler")
	}
	co := newCostObs(ctx, plan, op)
	co.meta(ctx, plan, rs)
	src := &rankSource{rs: rs, topo: &ctx.Topo}
	r, err := newPricingRun(ctx, plan, sh, src, op, opt, env, co)
	if err != nil {
		return nil, err
	}
	return r.price()
}
