// Package sim computes the simulated time of collective I/O operations.
//
// A collective I/O strategy (two-phase or memory-conscious) executes as a
// sequence of rounds; in each round aggregators exchange data with compute
// processes over the network and issue reads/writes to storage targets.
// The engine prices each round by its bottleneck resources:
//
//   - NIC injection/ejection time per node (bytes through the NIC / NIC BW,
//     plus a per-message latency charge),
//   - off-chip memory time per node (every byte shuffled through a node
//     crosses DRAM pricing.MemCopyFactor times; the node's memory bandwidth is
//     degraded when aggregation buffers exceed available memory — paging —
//     and when more aggregators than the per-node optimum N_ah are active —
//     contention),
//   - storage time per target (per-request overhead plus streaming time,
//     inflated for noncontiguous access).
//
// Round time is the maximum (overlapped phases) or the sum (classic
// blocking two-phase) of the communication and storage bottlenecks;
// operation time is the sum over rounds. Reported bandwidth is user bytes
// divided by operation time, which is how IOR and coll_perf report.
package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"mcio/internal/machine"
	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
	"mcio/internal/pfs"
	"mcio/internal/sim/pricing"
)

// Options tunes engine behaviour not tied to a machine or storage preset.
type Options struct {
	// Overlap makes communication and I/O phases of one round proceed
	// concurrently (pipelined collective buffering). ROMIO's classic
	// two-phase is blocking, so the default (false) sums the phases.
	Overlap bool
	// Trace records a TraceEntry per round, retrievable via TakeTrace.
	// Off by default: operations can run hundreds of rounds.
	Trace bool
	// NahOpt is the number of aggregators one node can host before
	// off-chip contention degrades bandwidth (the paper's N_ah; each one
	// beyond it costs pricing.ContentionBeta).
	NahOpt int
}

// DefaultOptions returns the options used by the shipped experiments.
func DefaultOptions() Options {
	return Options{
		Overlap: false,
		NahOpt:  4,
	}
}

// Validate reports an error for unusable options.
func (o Options) Validate() error {
	if o.NahOpt <= 0 {
		return fmt.Errorf("sim: NahOpt must be positive")
	}
	return nil
}

// IOOp is one storage access issued by an aggregator within a round,
// or a span of them: Count consecutive targets, Target through
// Target+Count-1, each receiving the same access, as pfs.Mapper reports
// a stripe span. Count 0 means 1. The engine prices a span exactly as
// the Count single-target accesses in ascending target order.
type IOOp struct {
	Target     int   // storage target (OST) index, the first of the span
	Count      int   // targets in the span; 0 means 1
	Node       int   // compute node issuing the access
	Bytes      int64 // payload bytes
	Requests   int   // number of distinct requests this access costs
	Contiguous bool  // whether the access streams contiguously
	Write      bool  // direction; pricing is symmetric but totals separate
	// Degraded marks a breaker fast-fail: the issuer did not wait on
	// the target's normal service path (it streamed degraded instead,
	// priced through DelaySeconds), so a gray target-slowdown
	// multiplier does not apply — that waiting is exactly what the
	// open breaker avoids.
	Degraded bool
	// DelaySeconds is extra service time charged to the target beyond
	// the request/stream model — retry backoff or degraded-target
	// penalties from fault injection. Zero for healthy accesses.
	DelaySeconds float64
}

// Round kinds for blame attribution. A data round moves user bytes; a
// metadata round carries the request-list exchange that precedes them.
// Recovery traffic is marked by RunAggRecoveryRound, not by kind.
const (
	RoundData     = ""
	RoundMetadata = "metadata"
)

// AggregatorPlacement declares one aggregator for the duration of an
// operation: which node hosts it, how large its aggregation buffer is, and
// how severely that buffer over-committed the host's available memory.
//
// PagedSeverity is the over-committed fraction of the buffer in [0, 1]:
// 0 means the aggregation buffer fits entirely in available memory, 1
// means none of it does and every buffer access pages. The node's
// effective memory bandwidth interpolates between full speed and
// PagedBandwidthFraction accordingly, so a mildly over-committed
// aggregator degrades mildly — which is what makes the baseline's
// performance fall off progressively as buffers shrink below the
// (variance-afflicted) available memory, as in the paper's Figures 6-8.
type AggregatorPlacement struct {
	Node          int
	BufferBytes   int64
	PagedSeverity float64
}

// RoundCost is the engine's pricing of one round.
type RoundCost struct {
	CommTime float64 // network + memory bottleneck, seconds
	IOTime   float64 // storage bottleneck, seconds
	Time     float64 // round wall time (max or sum per Options.Overlap)
}

// Totals accumulates operation-level accounting.
type Totals struct {
	Rounds    int
	CommTime  float64
	IOTime    float64
	Time      float64
	NetBytes  int64 // bytes that crossed a NIC (inter-node only)
	ShufBytes int64 // all shuffled bytes incl. intra-node
	IOBytes   int64
	Requests  int
	// RecoverySeconds is the simulated time spent on failure handling:
	// detection stalls, reboot waits, and recovery rounds. Included in
	// Time; zero on fault-free runs.
	RecoverySeconds float64
	// RecoveryRounds counts rounds priced via RunAggRecoveryRound.
	RecoveryRounds int
}

// Binding identifies the resources that bounded one round: the node whose
// communication load set the comm-phase time (and which of its resources
// dominated), and the storage target that set the I/O-phase time.
type Binding struct {
	// CommNode is the node with the largest communication time, -1 when
	// the round moved no data.
	CommNode int
	// CommResource is what bound CommNode: pricing.BindNICOut, BindNICIn,
	// BindMem or BindLatency (per-message latency exceeding every byte-stream
	// term). Empty when CommNode is -1.
	CommResource string
	// IOTarget is the storage target with the largest I/O time, -1 when
	// the round issued no I/O.
	IOTarget int
	// CommBound reports whether the comm phase (rather than I/O) set the
	// round's critical path. With overlapped phases it marks the larger
	// phase; without overlap both phases contribute and it marks the
	// larger contributor.
	CommBound bool
}

// String renders the binding compactly for trace views, e.g.
// "comm node 3 (mem)" or "io ost 5".
func (b Binding) String() string {
	comm := "idle"
	if b.CommNode >= 0 {
		comm = fmt.Sprintf("node %d (%s)", b.CommNode, b.CommResource)
	}
	io := "idle"
	if b.IOTarget >= 0 {
		io = fmt.Sprintf("ost %d", b.IOTarget)
	}
	if b.CommBound {
		return "comm " + comm + " | io " + io
	}
	return "io " + io + " | comm " + comm
}

// TraceEntry is one round's record when tracing is enabled.
type TraceEntry struct {
	Round     int
	Cost      RoundCost
	Messages  int
	IOOps     int
	CommBytes int64
	IOBytes   int64
	// Binding is the round's bottleneck attribution.
	Binding Binding
	// Recovery marks rounds priced via RunAggRecoveryRound (failure
	// handling, not user data movement).
	Recovery bool
	// Kind is the round's AggRound.Kind (RoundData or RoundMetadata).
	Kind string
	// CommPagedFrac is the fraction of CommTime the bound node spent
	// waiting on paging — the excess over the same traffic at full DRAM
	// speed. Zero when the bound node's aggregation buffers fit.
	CommPagedFrac float64
	// IOPagedFrac is the paging share of IOTime on the bound target:
	// accesses issued from paged nodes drain their buffers at degraded
	// speed, and this is the excess fraction so charged.
	IOPagedFrac float64
	// IODelayFrac is the share of IOTime that was injected fault delay
	// (retry backoff, degraded-target penalties) on the bound target.
	IODelayFrac float64
	// IODir is the round's storage direction: "write", "read", "mixed",
	// or "" when the round issued no I/O.
	IODir string
}

// Engine prices rounds against a machine design point and storage
// parameters. It is not safe for concurrent use.
//
// Engine state is dense: one nodeState per node ID and one targetState
// per target ID, so the per-message and per-access hot path indexes a
// slice instead of hashing. The node table is sized from
// machine.Config.Nodes and grows when a larger node ID appears; target
// IDs are bounded by pfs.Config.Targets. Each round lists the IDs it
// touched, so resetting costs what the round used, not the table size.
type Engine struct {
	mc      machine.Config
	stp     pricing.Storage
	opt     Options
	nodes   []nodeState
	targets []targetState
	totals  Totals
	trace   []TraceEntry
	eo      *engineObs
	rec     *timeline.Recorder
	tlPhase string // last phase journaled to the timeline recorder

	// The node and target IDs the current round touched, in touch order
	// until finishRound sorts them; nodeTime is finishRound's per-node
	// comm time, aligned with nodeIDs.
	nodeIDs   []int
	targetIDs []int
	nodeTime  []float64
}

// nodeState is one node's engine state: what the operation declared
// about it and the current round's accumulator.
type nodeState struct {
	aggs     int     // active aggregator count
	paged    float64 // worst paging severity present
	slowdown float64 // straggler bandwidth divisor, 1 = healthy
	load     nodeLoad
	touched  bool // load is in use this round (the node is in nodeIDs)
	// accExchange scratch, zero outside an exchange: receiving slots
	// hosted here, and the bytes and ranks sending from here.
	xSlots int64
	xBytes int64
	xCount int
}

// targetState is one storage target's engine state.
type targetState struct {
	slow    float64 // gray service-time multiplier, 1 = healthy
	load    targetLoad
	touched bool // load is in use this round (the target is in targetIDs)
}

// Track id conventions for engine-emitted spans. Tid 1 holds the
// op/round/phase timeline (spans nest by containment); per-node shuffle
// work and per-target storage work get one track each so the Perfetto
// view shows exactly which resource was busy when.
const (
	TIDTimeline = 1
	tidNodeBase = 100
	tidOSTBase  = 200
)

// engineObs carries the engine's observability wiring: the sinks, the
// process track, and one instrument family per metric, each with the
// base labels (e.g. strategy), so the per-round hot path indexes a
// slice and pays atomic updates, not lookups.
type engineObs struct {
	o    *obs.Observer
	pid  int
	tids map[int]bool // tids already named

	// Base labels only, at index 0.
	rounds, shuffleBytes, ioBytes, recoveryRounds, recoveryStalls family[obs.Counter]
	roundSeconds, recoverySeconds                                 family[obs.Histogram]
	// By node.
	aggregators, pagingEvents, pagedBytes family[obs.Counter]
	bytesOut, bytesIn, memBytes, msgs     family[obs.Counter]
	nodeSeconds                           family[obs.Histogram]
	// By storage target.
	bytesRead, bytesWritten, requests, streamBytes, noncontigBytes family[obs.Counter]
	queueDepth, targetSeconds                                      family[obs.Histogram]
}

// family is one metric's instruments by index: a node or target ID, or
// 0 alone for a metric with only the base labels (key ""). Each is
// resolved on first use, so an instrument the run never touches is
// never registered; an index past the slice grows it.
type family[T any] struct {
	name, key string
	base      []obs.Label
	resolve   func(name string, labels ...obs.Label) *T
	at        []*T
}

// get returns the instrument at index i, resolving it on first use with
// the base labels plus key=i.
func (f *family[T]) get(i int) *T {
	if i >= len(f.at) {
		f.at = append(f.at, make([]*T, i+1-len(f.at))...)
	}
	if x := f.at[i]; x != nil {
		return x
	}
	labels := f.base
	if f.key != "" {
		labels = append(slices.Clip(f.base), obs.L(f.key, strconv.Itoa(i)))
	}
	x := f.resolve(f.name, labels...)
	f.at[i] = x
	return x
}

// nameTID lazily names a thread track once.
func (eo *engineObs) nameTID(tid int, name string) {
	if eo.tids[tid] {
		return
	}
	eo.tids[tid] = true
	eo.o.Tracer().SetThreadName(eo.pid, tid, name)
}

// SetObserver attaches observability sinks to the engine. Spans are
// emitted on process track pid with simulated-time timestamps; metrics
// carry the base labels (typically the strategy name) plus a per-node or
// per-target label. A nil observer detaches.
func (e *Engine) SetObserver(o *obs.Observer, pid int, base ...obs.Label) {
	if o == nil {
		e.eo = nil
		return
	}
	nodes, targets := len(e.nodes), len(e.targets)
	// Each family starts sized for its index range: one base-labelled
	// instrument, or one per node or target.
	c := func(name, key string, n int) family[obs.Counter] {
		return family[obs.Counter]{name: name, key: key, base: base, resolve: o.Counter, at: make([]*obs.Counter, n)}
	}
	h := func(name, key string, n int) family[obs.Histogram] {
		return family[obs.Histogram]{name: name, key: key, base: base, resolve: o.Histogram, at: make([]*obs.Histogram, n)}
	}
	e.eo = &engineObs{
		o:    o,
		pid:  pid,
		tids: map[int]bool{},

		rounds:          c("sim.rounds", "", 1),
		shuffleBytes:    c("sim.shuffle_bytes", "", 1),
		ioBytes:         c("sim.io_bytes", "", 1),
		recoveryRounds:  c("sim.recovery_rounds", "", 1),
		recoveryStalls:  c("sim.recovery_stalls", "", 1),
		roundSeconds:    h("sim.round_seconds", "", 1),
		recoverySeconds: h("sim.recovery_seconds", "", 1),

		aggregators:  c("sim.aggregators", "node", nodes),
		pagingEvents: c("memmodel.paging_events", "node", nodes),
		pagedBytes:   c("memmodel.paged_bytes", "node", nodes),
		bytesOut:     c("net.bytes_out", "node", nodes),
		bytesIn:      c("net.bytes_in", "node", nodes),
		memBytes:     c("net.mem_bytes", "node", nodes),
		msgs:         c("net.msgs", "node", nodes),
		nodeSeconds:  h("net.node_seconds", "node", nodes),

		bytesRead:      c("pfs.bytes_read", "ost", targets),
		bytesWritten:   c("pfs.bytes_written", "ost", targets),
		requests:       c("pfs.requests", "ost", targets),
		streamBytes:    c("pfs.stream_bytes", "ost", targets),
		noncontigBytes: c("pfs.noncontig_bytes", "ost", targets),
		queueDepth:     h("pfs.queue_depth", "ost", targets),
		targetSeconds:  h("pfs.target_seconds", "ost", targets),
	}
	e.eo.nameTID(TIDTimeline, "rounds")
}

// SetTimeline attaches a timeline recorder: every round samples
// per-node busy time and NIC bytes and per-target busy time and queue
// depth into it, and phase changes (metadata / data / recovery) land
// in its journal. Recording is pure observation — pricing is
// unchanged. A nil recorder (the default) detaches.
func (e *Engine) SetTimeline(rec *timeline.Recorder) {
	e.rec = rec
	e.tlPhase = ""
}

// recordRound samples round te, which started at start, into the
// timeline recorder. Spans follow emitRound's convention: communication
// starts at the round start; storage starts after it, or alongside it
// when phases overlap.
func (e *Engine) recordRound(start float64, te *TraceEntry) {
	rec := e.rec
	phase := "data"
	switch {
	case te.Recovery:
		phase = "recovery"
	case te.Kind == RoundMetadata:
		phase = "metadata"
	}
	if phase != e.tlPhase {
		e.tlPhase = phase
		rec.J().Record(start, timeline.EvPhase, "run", phase)
	}
	commStart, ioStart := e.phaseStarts(start, te.Cost)
	for i, n := range e.nodeIDs {
		ent := timeline.Ent("node", n)
		rec.AddSpan(ent, "busy", commStart, commStart+e.nodeTime[i])
		l := &e.nodes[n].load
		rec.AddRate(ent, "nic_bytes", commStart, float64(l.in+l.out))
	}
	for _, t := range e.targetIDs {
		ent := timeline.Ent("ost", t)
		load := &e.targets[t].load
		rec.AddSpan(ent, "busy", ioStart, ioStart+load.time)
		rec.AddGauge(ent, "queue", ioStart, float64(load.requests))
	}
}

// phaseStarts returns when a round that started at start and cost rc
// begins its communication and its storage phase: storage follows
// communication, or runs alongside it when phases overlap.
func (e *Engine) phaseStarts(start float64, rc RoundCost) (comm, io float64) {
	if e.opt.Overlap {
		return start, start
	}
	return start, start + rc.CommTime
}

// NewEngine builds an engine that prices accesses to the targets of the
// file system fs. The machine config, file-system config and options
// are validated once here.
func NewEngine(mc machine.Config, fs pfs.Config, opt Options) (*Engine, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	if err := fs.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{mc: mc, opt: opt, targets: make([]targetState, fs.Targets), stp: pricing.Storage{
		TargetBW:        fs.TargetBW,
		ReadBWFactor:    fs.ReadBWFactor,
		ReqOverhead:     fs.ReqOverhead,
		NoncontigFactor: fs.NoncontigFactor,
	}}
	for t := range e.targets {
		e.targets[t].slow = 1
	}
	e.growNodes(mc.Nodes - 1)
	return e, nil
}

// Storage returns the storage model the engine prices target accesses
// with.
func (e *Engine) Storage() pricing.Storage { return e.stp }

// growNodes extends the node table to cover node ID n, doubling so a
// run of rising IDs grows it a logarithmic number of times. Pointers
// into the table do not survive it.
func (e *Engine) growNodes(n int) {
	if n < 0 {
		panic(fmt.Sprintf("sim: negative node %d", n))
	}
	if n < len(e.nodes) {
		return
	}
	size := max(n+1, 2*len(e.nodes))
	grown := make([]nodeState, size)
	copy(grown, e.nodes)
	for i := len(e.nodes); i < size; i++ {
		grown[i].slowdown = 1
	}
	e.nodes = grown
}

// node returns node n's state, growing the table when n is past it.
func (e *Engine) node(n int) *nodeState {
	if uint(n) >= uint(len(e.nodes)) {
		e.growNodes(n)
	}
	return &e.nodes[n]
}

// SetAggregators declares the aggregator placement for the operation being
// priced. It resets any previous placement. Severities outside [0,1] are
// clamped.
func (e *Engine) SetAggregators(aggs []AggregatorPlacement) {
	for n := range e.nodes {
		e.nodes[n].aggs, e.nodes[n].paged = 0, 0
	}
	for _, a := range aggs {
		ns := e.node(a.Node)
		ns.aggs++
		s := a.PagedSeverity
		if s < 0 {
			s = 0
		}
		if s > 1 {
			s = 1
		}
		if s > ns.paged {
			ns.paged = s
		}
		if eo := e.eo; eo != nil {
			eo.aggregators.get(a.Node).Inc()
			// Resolve the paging counter even at zero severity so every
			// aggregator node reports the family (value 0 = no paging).
			paging := eo.pagingEvents.get(a.Node)
			if s > 0 {
				paging.Inc()
				eo.pagedBytes.get(a.Node).Add(int64(s * float64(a.BufferBytes)))
			}
		}
	}
}

// SetNodeSlowdown declares a straggler: node's NIC and DRAM bandwidth
// are divided by factor until the next call. Factor <= 1 clears it.
func (e *Engine) SetNodeSlowdown(node int, factor float64) {
	if factor <= 1 {
		if node >= 0 && node < len(e.nodes) {
			e.nodes[node].slowdown = 1
		}
		return
	}
	e.node(node).slowdown = factor
}

// SetNodePaged updates one node's paging severity mid-operation (e.g.
// after a memory collapse) without re-declaring the whole aggregator
// placement. Severity is clamped to [0, 1].
func (e *Engine) SetNodePaged(node int, severity float64) {
	if severity < 0 {
		severity = 0
	}
	if severity > 1 {
		severity = 1
	}
	e.node(node).paged = severity
}

// SetTargetSlowdown declares a gray storage degradation: service time
// for accesses to target is multiplied by factor until the next call.
// Factor <= 1 clears it. The excess over healthy service time is
// charged as injected delay, so blame attribution groups it with the
// other fault-induced waiting rather than with honest streaming work.
// A target outside [0, Targets) never serves an access (accIOOp rejects
// it), so a slowdown declared on one has nothing to act on and is
// dropped.
func (e *Engine) SetTargetSlowdown(target int, factor float64) {
	if target < 0 || target >= len(e.targets) {
		return
	}
	e.targets[target].slow = max(factor, 1)
}

// nodeSlowdown returns node's straggler bandwidth divisor (1 = healthy).
func (e *Engine) nodeSlowdown(node int) float64 { return e.nodes[node].slowdown }

// pagedSlowdown returns the multiplicative slowdown of everything an
// aggregator on this node touches once its buffer pages: a paged
// aggregation buffer stalls the copy into/out of the buffer, the NIC
// transfers that feed it, and the storage accesses that drain it, because
// every one of those reads or writes the faulting pages. Severity s
// interpolates linearly between full speed (1x) and running the buffer at
// PagedBandwidthFraction of DRAM speed.
func (e *Engine) pagedSlowdown(node int) float64 {
	return pricing.PagedSlowdown(e.nodes[node].paged, e.mc.PagedBandwidthFraction)
}

// effMemBW returns the node's effective off-chip bandwidth for shuffle
// traffic given paging state and aggregator contention.
func (e *Engine) effMemBW(node int) float64 {
	return pricing.EffMemBW(e.mc.MemBandwidth, e.pagedSlowdown(node), e.nodeSlowdown(node),
		e.nodes[node].aggs, e.opt.NahOpt)
}

// nodeLoad accumulates one node's traffic within a round.
type nodeLoad struct {
	in, out int64 // NIC bytes
	mem     int64 // DRAM bytes
	msgs    int
}

// targetLoad accumulates one storage target's work within a round.
type targetLoad struct {
	time     float64
	bytes    int64
	requests int
	seek     int64 // bytes of noncontiguous accesses
	// pagedExcess is service time beyond what the same accesses would
	// cost with unpaged issuing nodes; delay is injected fault delay.
	// Both are components of time, kept separate for blame attribution.
	pagedExcess float64
	delay       float64
}

// AggMessage is a bundle of same-route network transfers within a
// round: the total payload and the number of point-to-point messages it
// stands for. A single transfer is a bundle with Count 1. Intra-node
// bundles (SrcNode == DstNode) skip the NIC and only consume memory
// bandwidth. collio prices one AggMessage per (source node, destination
// node) pair of a work item instead of one per rank. A zero-byte bundle
// moves nothing; its Count still shows in the round's trace entry.
type AggMessage struct {
	SrcNode int
	DstNode int
	Bytes   int64 // total payload across the constituent messages
	Count   int   // number of constituent messages
}

// Exchange is an all-to-all bundle within a round: every source entry
// ships its bytes to every destination slot. It is the aggregate form of
// the metadata scatter of collective I/O — each member rank sending its
// flattened extent list to each group aggregator — whose per-route form
// is dense (source nodes × aggregator nodes) and therefore quadratic to
// even enumerate at scale. The engine prices an Exchange in
// O(sources + destinations) from the row and column totals.
type Exchange struct {
	Srcs []ExchangeSrc
	Dsts []ExchangeDst
}

// ExchangeSrc is one sending node's side of an Exchange.
type ExchangeSrc struct {
	Node  int
	Bytes int64 // positive payload total across the node's sending ranks
	Count int   // sending ranks (each emits one positive-byte message per slot)
}

// ExchangeDst is one receiving node's side of an Exchange.
type ExchangeDst struct {
	Node  int
	Slots int // receiving slots (aggregators) hosted on the node
}

// AggRound is one step of a collective operation: per-route message
// bundles and all-to-all exchanges, plus per-target storage accesses.
type AggRound struct {
	Messages  []AggMessage
	Exchanges []Exchange
	IOOps     []IOOp
	// Kind tags the round for critical-path blame attribution; the zero
	// value is a data round, RoundMetadata marks a request exchange.
	Kind string
}

// RunAggRound prices one round and accumulates it into the totals. The
// engine reduces messages to per-node byte loads before pricing, so a
// bundle prices as its constituent messages sent one by one (Count 1
// each) would: the DRAM charge int64(MemCopyFactor*bytes), computed once
// per bundle instead of once per message, is exact for the integral
// factor.
func (e *Engine) RunAggRound(r AggRound) RoundCost { return e.runAggRound(r, false, false) }

// RunAggRoundMirrored prices r run in the opposite direction: each
// message travels from its DstNode to its SrcNode and each access's
// Write is negated; nothing else changes. A clean read and write of one
// schedule differ in only that, so one assembled round can feed both
// directions' engines, each accumulating what a round built for its own
// direction would give it.
func (e *Engine) RunAggRoundMirrored(r AggRound) RoundCost { return e.runAggRound(r, false, true) }

// RunAggRecoveryRound prices a round of failure-handling traffic (e.g.
// the metadata re-exchange after an aggregator failover) by the same
// bottleneck model as RunAggRound, attributed to recovery in the totals
// and trace.
func (e *Engine) RunAggRecoveryRound(r AggRound) RoundCost { return e.runAggRound(r, true, false) }

func (e *Engine) runAggRound(r AggRound, recovery, mirrored bool) RoundCost {
	e.beginRound()
	var commBytes int64
	nMsgs := 0
	for _, m := range r.Messages {
		if m.Count < 0 {
			panic("sim: negative message count")
		}
		src, dst := m.SrcNode, m.DstNode
		if mirrored {
			src, dst = dst, src
		}
		e.accMessage(src, dst, m.Bytes, m.Count)
		commBytes += m.Bytes
		nMsgs += m.Count
	}
	for _, x := range r.Exchanges {
		cb, n := e.accExchange(x)
		commBytes += cb
		nMsgs += n
	}
	ops, ioBytes, ioDir := e.accIOOps(r.IOOps, mirrored)
	return e.finishRound(r.Kind, recovery, nMsgs, ops, commBytes, ioBytes, ioDir)
}

// accIOOps accumulates a round's storage accesses, each access's Write
// negated when mirrored, and summarizes them for the trace: the number
// of single-target accesses they stand for, their bytes and the round's
// direction tag.
func (e *Engine) accIOOps(ops []IOOp, mirrored bool) (n int, bytes int64, dir string) {
	for i := range ops {
		op := &ops[i]
		write := op.Write != mirrored
		k := e.accIOOp(op, write)
		n += k
		bytes += int64(k) * op.Bytes
		dir = mergeIODir(dir, write)
	}
	return n, bytes, dir
}

// beginRound resets the accumulators the previous round touched, and
// only those, so steady-state rounds allocate nothing.
func (e *Engine) beginRound() {
	for _, n := range e.nodeIDs {
		ns := &e.nodes[n]
		ns.load, ns.touched = nodeLoad{}, false
	}
	for _, t := range e.targetIDs {
		ts := &e.targets[t]
		ts.load, ts.touched = targetLoad{}, false
	}
	e.nodeIDs, e.targetIDs = e.nodeIDs[:0], e.targetIDs[:0]
}

// load returns the round's accumulator for a node, listing the node as
// touched on first use. It may grow the node table, so a caller holding
// another node's load must have grown the table first.
func (e *Engine) load(n int) *nodeLoad {
	ns := e.node(n)
	if !ns.touched {
		ns.touched = true
		e.nodeIDs = append(e.nodeIDs, n)
	}
	return &ns.load
}

// target is load's counterpart for storage targets; t is in range
// (accIOOp checks it).
func (e *Engine) target(t int) *targetState {
	ts := &e.targets[t]
	if !ts.touched {
		ts.touched = true
		e.targetIDs = append(e.targetIDs, t)
	}
	return ts
}

// accMessage accumulates a message bundle (count messages totalling
// bytes on one src→dst route) into the round's node loads.
func (e *Engine) accMessage(src, dst int, bytes int64, count int) {
	if bytes < 0 {
		panic("sim: negative message size")
	}
	if bytes == 0 {
		return
	}
	e.growNodes(max(src, dst)) // the loads below must not move
	e.totals.ShufBytes += bytes
	if src == dst {
		// Intra-node: two extra DRAM crossings, no NIC.
		l := e.load(src)
		l.mem += pricing.IntraMemCopy(bytes)
		l.msgs += count
		return
	}
	e.totals.NetBytes += bytes
	sl, dl := e.load(src), e.load(dst)
	sl.out += bytes
	dl.in += bytes
	sl.mem += pricing.MemCopy(bytes)
	dl.mem += pricing.MemCopy(bytes)
	sl.msgs += count
	dl.msgs += count
}

// accExchange accumulates an all-to-all bundle into the round's node
// loads without enumerating routes: each endpoint's load depends only on
// its own entry and the exchange totals (minus its intra-node share), so
// the cost is linear in endpoints. Per-node sums equal what accMessage
// over the dense (src, dst) product would produce; as with AggMessage
// bundles, the DRAM charge rounds once per aggregate. Returns the total
// bytes moved and the number of constituent point-to-point messages.
func (e *Engine) accExchange(x Exchange) (commBytes int64, msgs int) {
	var slots int64
	for _, d := range x.Dsts {
		if d.Slots < 0 {
			panic("sim: negative exchange slots")
		}
		slots += int64(d.Slots)
		e.growNodes(d.Node)
	}
	var totalBytes int64
	totalCount := 0
	for _, s := range x.Srcs {
		if s.Bytes < 0 {
			panic("sim: negative exchange size")
		}
		if s.Count < 0 {
			panic("sim: negative exchange count")
		}
		totalBytes += s.Bytes
		totalCount += s.Count
		e.growNodes(s.Node)
	}
	if slots == 0 || totalBytes == 0 {
		return 0, 0
	}
	// Intra-node split inputs, in the node table's exchange scratch:
	// receiving slots per source node, sent bytes per destination node.
	// Both are zeroed again before returning.
	for _, d := range x.Dsts {
		e.nodes[d.Node].xSlots += int64(d.Slots)
	}
	for _, s := range x.Srcs {
		ns := &e.nodes[s.Node]
		ns.xBytes += s.Bytes
		ns.xCount += s.Count
	}
	for _, s := range x.Srcs {
		if s.Bytes == 0 {
			continue
		}
		e.totals.ShufBytes += s.Bytes * slots
		l := e.load(s.Node)
		ms := e.nodes[s.Node].xSlots
		if ms > 0 {
			// Intra-node deliveries: two extra DRAM crossings, no NIC.
			l.mem += pricing.IntraMemCopy(s.Bytes * ms)
			l.msgs += s.Count * int(ms)
		}
		if inter := slots - ms; inter > 0 {
			e.totals.NetBytes += s.Bytes * inter
			l.out += s.Bytes * inter
			l.mem += pricing.MemCopy(s.Bytes * inter)
			l.msgs += s.Count * int(inter)
		}
		commBytes += s.Bytes * slots
		msgs += s.Count * int(slots)
	}
	for _, d := range x.Dsts {
		if d.Slots == 0 {
			continue
		}
		own := &e.nodes[d.Node]
		recvBytes := (totalBytes - own.xBytes) * int64(d.Slots)
		if recvBytes == 0 {
			continue
		}
		l := e.load(d.Node)
		l.in += recvBytes
		l.mem += pricing.MemCopy(recvBytes)
		l.msgs += (totalCount - own.xCount) * d.Slots
	}
	for _, d := range x.Dsts {
		e.nodes[d.Node].xSlots = 0
	}
	for _, s := range x.Srcs {
		ns := &e.nodes[s.Node]
		ns.xBytes, ns.xCount = 0, 0
	}
	return commBytes, msgs
}

// accIOOp accumulates one storage access, or one span of them, into
// the round's node and target loads and returns the number of targets
// it covers. Storage accesses also traverse the issuing node's NIC and
// DRAM. A span's service time and the issuing node's slowdowns are
// computed once; each target then gets the float adds a single access
// would give it, in the same order, and the integer loads are
// multiplied out, so a span prices bit-identically to its accesses.
// write stands for op.Write, which a mirrored round negates.
func (e *Engine) accIOOp(op *IOOp, write bool) int {
	n := max(op.Count, 1)
	if op.Bytes < 0 {
		panic("sim: negative I/O size")
	}
	if op.Target < 0 || op.Target+n > len(e.targets) {
		panic(fmt.Sprintf("sim: I/O op for targets [%d,%d) outside [0,%d)", op.Target, op.Target+n, len(e.targets)))
	}
	if op.Bytes == 0 && op.Requests == 0 {
		return n
	}
	if op.DelaySeconds < 0 {
		panic("sim: negative I/O delay")
	}
	bytes := int64(n) * op.Bytes
	e.totals.IOBytes += bytes
	e.totals.Requests += n * op.Requests
	l := e.load(op.Node)
	if write {
		l.out += bytes
	} else {
		l.in += bytes
	}
	l.mem += int64(n) * pricing.MemCopy(op.Bytes)
	// A paged or straggling issuing node drains/fills its aggregation
	// buffer at degraded speed, throttling the storage access it
	// drives; injected retry/degradation delay is charged on top.
	unpaged := e.stp.ServiceTime(op.Bytes, op.Requests, op.Contiguous, write) * e.nodeSlowdown(op.Node)
	paged := e.pagedSlowdown(op.Node)
	for t := op.Target; t < op.Target+n; t++ {
		ts := e.target(t)
		tl := &ts.load
		delay := op.DelaySeconds
		// A gray-degraded target serves every access slower; the excess
		// over healthy service counts as fault delay, not honest work.
		// Degraded (breaker fast-fail) accesses never waited on the
		// slowed service path, so they skip the multiplier.
		if f := ts.slow; f > 1 && !op.Degraded {
			delay += unpaged * (f - 1)
		}
		tl.time += unpaged*paged + delay
		tl.pagedExcess += unpaged * (paged - 1)
		tl.delay += delay
		tl.bytes += op.Bytes
		tl.requests += op.Requests
		if !op.Contiguous {
			tl.seek += op.Bytes
		}
		if eo := e.eo; eo != nil {
			moved, kind := &eo.bytesRead, &eo.noncontigBytes
			if write {
				moved = &eo.bytesWritten
			}
			if op.Contiguous {
				kind = &eo.streamBytes
			}
			moved.get(t).Add(op.Bytes)
			eo.requests.get(t).Add(int64(op.Requests))
			kind.get(t).Add(op.Bytes)
		}
	}
	return n
}

// mergeIODir folds one access's direction into the round's direction
// tag: "write", "read", "mixed", or "" when no I/O was seen yet.
func mergeIODir(dir string, write bool) string {
	d := "read"
	if write {
		d = "write"
	}
	switch dir {
	case "":
		return d
	case d:
		return dir
	default:
		return "mixed"
	}
}

// ascendingIDs puts ids, the distinct IDs of a table of n entries whose
// touched flag is set, in ascending order. When sorting them would cost
// about as much as reading every flag, it rewrites them by scanning the
// flags in ID order instead; either way the result is the same list.
func ascendingIDs(ids []int, n int, touched func(id int) bool) {
	if len(ids)*bits.Len(uint(len(ids))) < n {
		slices.Sort(ids)
		return
	}
	k := 0
	for id := 0; id < n && k < len(ids); id++ {
		if touched(id) {
			ids[k] = id
			k++
		}
	}
}

// finishRound prices the accumulated node and target loads, folds the
// round into the totals, and publishes trace/timeline/observability
// records. traceMsgs/traceOps are the constituent counts reported in
// the trace entry; commBytes/ioBytes/ioDir summarize the round's
// traffic for the same consumers.
func (e *Engine) finishRound(kind string, recovery bool, traceMsgs, traceOps int, commBytes, ioBytes int64, ioDir string) RoundCost {
	// Nodes and targets are visited in ascending ID order, so the lowest
	// ID wins a bottleneck tie and emitted spans are deterministic
	// whatever order the round's traffic arrived in.
	ascendingIDs(e.nodeIDs, len(e.nodes), func(n int) bool { return e.nodes[n].touched })
	ascendingIDs(e.targetIDs, len(e.targets), func(t int) bool { return e.targets[t].touched })
	nodeIDs, targetIDs := e.nodeIDs, e.targetIDs

	binding := Binding{CommNode: -1, IOTarget: -1}
	var comm, commPagedFrac float64
	if cap(e.nodeTime) < len(nodeIDs) {
		e.nodeTime = make([]float64, len(nodeIDs))
	}
	nodeTime := e.nodeTime[:len(nodeIDs)] // every slot is written below
	e.nodeTime = nodeTime
	for i, n := range nodeIDs {
		l := &e.nodes[n].load
		slow := e.pagedSlowdown(n) * e.nodeSlowdown(n)
		t, res, tlat := pricing.CommTime(pricing.NodeLoad{In: l.in, Out: l.out, Mem: l.mem, Msgs: l.msgs},
			e.mc.NICBandwidth, slow, e.effMemBW(n), e.mc.NetLatency)
		nodeTime[i] = t
		if t > comm {
			comm = t
			binding.CommNode, binding.CommResource = n, res
			commPagedFrac = pricing.PagedCommFraction(t, tlat, e.pagedSlowdown(n))
		}
	}
	var io, ioPagedFrac, ioDelayFrac float64
	for _, t := range targetIDs {
		tl := &e.targets[t].load
		if tt := tl.time; tt > io {
			io = tt
			binding.IOTarget = t
			ioPagedFrac, ioDelayFrac = 0, 0
			if tt > 0 {
				ioPagedFrac = tl.pagedExcess / tt
				ioDelayFrac = tl.delay / tt
			}
		}
	}
	binding.CommBound = comm >= io

	rc := RoundCost{CommTime: comm, IOTime: io}
	rc.Time = pricing.RoundWall(comm, io, e.opt.Overlap)

	start := e.totals.Time
	round := e.totals.Rounds
	e.totals.Rounds++
	e.totals.CommTime += comm
	e.totals.IOTime += io
	e.totals.Time += rc.Time
	if recovery {
		e.totals.RecoveryRounds++
		e.totals.RecoverySeconds += rc.Time
	}

	te := TraceEntry{
		Round:         round,
		Cost:          rc,
		Messages:      traceMsgs,
		IOOps:         traceOps,
		CommBytes:     commBytes,
		IOBytes:       ioBytes,
		Binding:       binding,
		Recovery:      recovery,
		Kind:          kind,
		CommPagedFrac: commPagedFrac,
		IOPagedFrac:   ioPagedFrac,
		IODelayFrac:   ioDelayFrac,
		IODir:         ioDir,
	}
	if e.opt.Trace {
		e.trace = append(e.trace, te)
	}
	if e.rec != nil {
		e.recordRound(start, &te)
	}
	if e.eo != nil {
		e.emitRound(start, &te)
	}
	return rc
}

// formatFrac renders a blame fraction compactly, "" for zero (the
// attribute is then omitted to keep traces small).
func formatFrac(f float64) string {
	if f <= 0 {
		return ""
	}
	return strconv.FormatFloat(f, 'g', 6, 64)
}

// emitRound publishes round te, which started at start: its counters,
// the round and its comm/io phases on the timeline track, per-node
// shuffle spans and per-target storage spans, all at simulated time,
// from te and the round's node and target loads. Phase spans carry
// "phase" (shuffle, metadata, read, write), "paged_frac" and
// "delay_frac" for trace readers; blame reads the same fractions from
// TraceEntry.
func (e *Engine) emitRound(start float64, te *TraceEntry) {
	eo, rc := e.eo, te.Cost
	eo.rounds.get(0).Inc()
	eo.shuffleBytes.get(0).Add(te.CommBytes)
	eo.ioBytes.get(0).Add(te.IOBytes)
	eo.roundSeconds.get(0).Observe(rc.Time)
	if te.Recovery {
		eo.recoveryRounds.get(0).Inc()
		eo.recoverySeconds.get(0).Observe(rc.Time)
	}
	for i, n := range e.nodeIDs {
		l := &e.nodes[n].load
		eo.bytesOut.get(n).Add(l.out)
		eo.bytesIn.get(n).Add(l.in)
		eo.memBytes.get(n).Add(l.mem)
		eo.msgs.get(n).Add(int64(l.msgs))
		eo.nodeSeconds.get(n).Observe(e.nodeTime[i])
	}
	for _, t := range e.targetIDs {
		tl := &e.targets[t].load
		eo.queueDepth.get(t).Observe(float64(tl.requests))
		eo.targetSeconds.get(t).Observe(tl.time)
	}

	tr := eo.o.Tracer()
	if tr == nil {
		return
	}
	name := fmt.Sprintf("round %d", te.Round)
	kind := te.Kind
	if kind == RoundData {
		kind = "data"
	}
	if te.Recovery {
		name = fmt.Sprintf("recovery round %d", te.Round)
		kind = "recovery"
	}
	roundSpan := tr.Begin(eo.pid, TIDTimeline, name, start,
		obs.A("binding", te.Binding.String()),
		obs.A("kind", kind),
		obs.A("comm_bytes", strconv.FormatInt(te.CommBytes, 10)),
		obs.A("io_bytes", strconv.FormatInt(te.IOBytes, 10)))
	roundSpan.End(start + rc.Time)
	commStart, ioStart := e.phaseStarts(start, rc)
	if rc.CommTime > 0 {
		commPhase := "shuffle"
		if te.Kind == RoundMetadata {
			commPhase = "metadata"
		}
		span := tr.Begin(eo.pid, TIDTimeline, "comm", commStart,
			obs.A("phase", commPhase),
			obs.A("bound_by", fmt.Sprintf("node %d (%s)", te.Binding.CommNode, te.Binding.CommResource)))
		if f := formatFrac(te.CommPagedFrac); f != "" {
			span.Attr("paged_frac", f)
		}
		span.End(commStart + rc.CommTime)
	}
	if rc.IOTime > 0 {
		span := tr.Begin(eo.pid, TIDTimeline, "io", ioStart,
			obs.A("phase", te.IODir),
			obs.A("bound_by", fmt.Sprintf("ost %d", te.Binding.IOTarget)))
		if f := formatFrac(te.IOPagedFrac); f != "" {
			span.Attr("paged_frac", f)
		}
		if f := formatFrac(te.IODelayFrac); f != "" {
			span.Attr("delay_frac", f)
		}
		span.End(ioStart + rc.IOTime)
	}
	for i, n := range e.nodeIDs {
		if e.nodeTime[i] <= 0 {
			continue
		}
		l := &e.nodes[n].load
		eo.nameTID(tidNodeBase+n, fmt.Sprintf("node %d shuffle", n))
		span := tr.Begin(eo.pid, tidNodeBase+n, "shuffle", commStart,
			obs.A("out_bytes", strconv.FormatInt(l.out, 10)),
			obs.A("in_bytes", strconv.FormatInt(l.in, 10)),
			obs.A("mem_bytes", strconv.FormatInt(l.mem, 10)),
			obs.A("msgs", strconv.Itoa(l.msgs)))
		span.End(commStart + e.nodeTime[i])
	}
	for _, t := range e.targetIDs {
		tl := &e.targets[t].load
		if tl.time <= 0 {
			continue
		}
		eo.nameTID(tidOSTBase+t, fmt.Sprintf("ost %d", t))
		span := tr.Begin(eo.pid, tidOSTBase+t, "io", ioStart,
			obs.A("bytes", strconv.FormatInt(tl.bytes, 10)),
			obs.A("requests", strconv.Itoa(tl.requests)),
			obs.A("seek_bytes", strconv.FormatInt(tl.seek, 10)))
		span.End(ioStart + tl.time)
	}
}

// ReserveTrace sizes the trace for n rounds when Options.Trace is set,
// so a run that knows its round count records without regrowing it.
func (e *Engine) ReserveTrace(n int) {
	if e.opt.Trace {
		e.trace = slices.Grow(e.trace, n)
	}
}

// TakeTrace hands the per-round records collected so far to the caller
// without copying them; the engine starts a fresh trace.
func (e *Engine) TakeTrace() []TraceEntry {
	tr := e.trace
	e.trace = nil
	return tr
}

// AddLatency charges a flat latency (e.g. collective metadata exchange)
// to the operation without any byte movement.
func (e *Engine) AddLatency(seconds float64) {
	if seconds < 0 {
		panic("sim: negative latency")
	}
	e.totals.Time += seconds
	e.totals.CommTime += seconds
}

// AddRecoveryLatency charges time spent purely on failure handling — a
// detection delay before a failover or the baseline's reboot stall —
// attributing it to recovery in the totals and, when tracing, as a span
// named after kind on the timeline track.
func (e *Engine) AddRecoveryLatency(seconds float64, kind string) {
	if seconds < 0 {
		panic("sim: negative recovery latency")
	}
	if seconds == 0 {
		return
	}
	start := e.totals.Time
	e.totals.Time += seconds
	e.totals.RecoverySeconds += seconds
	if e.rec != nil {
		e.rec.J().Record(start, timeline.EvStall, "run",
			fmt.Sprintf("%s (%.4gs)", kind, seconds))
		e.rec.AddSpan("run", "stall", start, start+seconds)
	}
	if eo := e.eo; eo != nil {
		eo.recoveryStalls.get(0).Inc()
		eo.recoverySeconds.get(0).Observe(seconds)
		if tr := eo.o.Tracer(); tr != nil {
			span := tr.Begin(eo.pid, TIDTimeline, "recovery: "+kind, start,
				obs.A("phase", "recovery"))
			span.End(start + seconds)
		}
	}
}

// Totals returns the accumulated accounting.
func (e *Engine) Totals() Totals { return e.totals }

// Elapsed returns the operation's accumulated simulated seconds.
func (e *Engine) Elapsed() float64 { return e.totals.Time }

// Bandwidth returns userBytes / elapsed time in bytes/second, or 0 when no
// time has elapsed.
func (e *Engine) Bandwidth(userBytes int64) float64 {
	if e.totals.Time == 0 {
		return 0
	}
	return float64(userBytes) / e.totals.Time
}
