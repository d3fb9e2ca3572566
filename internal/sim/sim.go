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
//     crosses DRAM MemCopyFactor times; the node's memory bandwidth is
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
	"slices"
	"strconv"

	"mcio/internal/machine"
	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
	"mcio/internal/sim/pricing"
)

// StorageParams prices accesses to the parallel-file-system targets.
type StorageParams struct {
	Targets     int     // number of storage targets (OSTs)
	TargetBW    float64 // streaming write bandwidth per target, bytes/s
	ReqOverhead float64 // fixed cost per storage request, seconds (seek+RPC)
	// NoncontigFactor inflates the streaming time of an access marked
	// noncontiguous (>1: noncontiguous I/O is slower per byte).
	NoncontigFactor float64
	// ReadBWFactor scales TargetBW for read accesses; the zero value means
	// symmetric (factor 1).
	ReadBWFactor float64
}

// readBW returns the effective streaming bandwidth for reads.
func (s StorageParams) readBW() float64 {
	return s.pricing().StreamBW(false)
}

// pricing converts the per-target parameters into the shared pricing
// core's storage model.
func (s StorageParams) pricing() pricing.Storage {
	return pricing.Storage{
		TargetBW:        s.TargetBW,
		ReadBWFactor:    s.ReadBWFactor,
		ReqOverhead:     s.ReqOverhead,
		NoncontigFactor: s.NoncontigFactor,
	}
}

// Validate reports an error for parameters the engine cannot price.
func (s StorageParams) Validate() error {
	switch {
	case s.Targets <= 0:
		return fmt.Errorf("sim: Targets = %d, must be positive", s.Targets)
	case s.TargetBW <= 0:
		return fmt.Errorf("sim: TargetBW must be positive")
	case s.ReqOverhead < 0:
		return fmt.Errorf("sim: ReqOverhead must be non-negative")
	case s.NoncontigFactor < 1:
		return fmt.Errorf("sim: NoncontigFactor must be >= 1")
	case s.ReadBWFactor < 0:
		return fmt.Errorf("sim: ReadBWFactor must be non-negative")
	}
	return nil
}

// Options tunes engine behaviour not tied to a machine or storage preset.
type Options struct {
	// Overlap makes communication and I/O phases of one round proceed
	// concurrently (pipelined collective buffering). ROMIO's classic
	// two-phase is blocking, so the default (false) sums the phases.
	Overlap bool
	// Trace records a TraceEntry per round, retrievable via Trace().
	// Off by default: operations can run hundreds of rounds.
	Trace bool
	// MemCopyFactor is how many times each shuffled byte crosses a node's
	// DRAM (copy into the aggregation buffer and out to the NIC ≈ 2).
	MemCopyFactor float64
	// NahOpt is the number of aggregators one node can host before
	// off-chip contention degrades bandwidth (the paper's N_ah).
	NahOpt int
	// ContentionBeta scales the bandwidth degradation per aggregator
	// beyond NahOpt: effBW = memBW / (1 + beta*max(0, k-NahOpt)).
	ContentionBeta float64
}

// DefaultOptions returns the options used by the shipped experiments.
func DefaultOptions() Options {
	return Options{
		Overlap:        false,
		MemCopyFactor:  2,
		NahOpt:         4,
		ContentionBeta: 0.35,
	}
}

// Validate reports an error for unusable options.
func (o Options) Validate() error {
	switch {
	case o.MemCopyFactor <= 0:
		return fmt.Errorf("sim: MemCopyFactor must be positive")
	case o.NahOpt <= 0:
		return fmt.Errorf("sim: NahOpt must be positive")
	case o.ContentionBeta < 0:
		return fmt.Errorf("sim: ContentionBeta must be non-negative")
	}
	return nil
}

// Message is one network transfer within a round. Intra-node transfers
// (SrcNode == DstNode) skip the NIC and only consume memory bandwidth.
type Message struct {
	SrcNode int
	DstNode int
	Bytes   int64
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
// Recovery traffic is marked by RunRecoveryRound, not by kind.
const (
	RoundData     = ""
	RoundMetadata = "metadata"
)

// Round is one step of a collective operation.
type Round struct {
	Messages []Message
	IOOps    []IOOp
	// Kind tags the round for critical-path blame attribution; the zero
	// value is a data round, RoundMetadata marks a request exchange.
	Kind string
}

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

// Paged reports whether the placement over-commits its host at all.
func (a AggregatorPlacement) Paged() bool { return a.PagedSeverity > 0 }

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
	// RecoveryRounds counts rounds priced via RunRecoveryRound.
	RecoveryRounds int
	// PerNodeShuffle records shuffled bytes through each node that hosted
	// an aggregator or endpoint, for memory-pressure reporting.
	PerNodeShuffle map[int]int64
}

// Comm-phase binding resources for Binding.CommResource, aliased from
// the shared pricing core.
const (
	BindNICOut  = pricing.BindNICOut
	BindNICIn   = pricing.BindNICIn
	BindMem     = pricing.BindMem
	BindLatency = pricing.BindLatency
)

// Binding identifies the resources that bounded one round: the node whose
// communication load set the comm-phase time (and which of its resources
// dominated), and the storage target that set the I/O-phase time.
type Binding struct {
	// CommNode is the node with the largest communication time, -1 when
	// the round moved no data.
	CommNode int
	// CommResource is what bound CommNode: BindNICOut, BindNICIn, BindMem
	// or BindLatency (per-message latency exceeding every byte-stream
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
	// Recovery marks rounds priced via RunRecoveryRound (failure
	// handling, not user data movement).
	Recovery bool
	// Kind is the round's Round.Kind (RoundData or RoundMetadata).
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
// IDs are bounded by StorageParams.Targets. Each round lists the IDs it
// touched, so resetting costs what the round used, not the table size.
type Engine struct {
	mc      machine.Config
	st      StorageParams
	stp     pricing.Storage // st in the pricing core's form
	opt     Options
	nodes   []nodeState
	targets []targetState
	totals  Totals // PerNodeShuffle is built by Totals from nodes
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
// about it, its shuffle total, and the current round's accumulator.
type nodeState struct {
	aggs     int     // active aggregator count
	paged    float64 // worst paging severity present
	slowdown float64 // straggler bandwidth divisor, 1 = healthy
	shuffle  int64   // Totals.PerNodeShuffle entry; zero = no entry
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
// process track, base labels (e.g. strategy), and per-index instrument
// caches so the per-round hot path pays atomic updates, not lookups.
type engineObs struct {
	o    *obs.Observer
	pid  int
	base []obs.Label
	tids map[int]bool // tids already named
	cs   map[string]*obs.Counter
	hs   map[string]*obs.Histogram
}

// counter resolves (and caches) a counter with the base labels plus one
// indexed label like ost=3 or node=7; an empty labelKey means base labels
// only.
func (eo *engineObs) counter(metric, labelKey string, idx int) *obs.Counter {
	k := metric + "\x00" + strconv.Itoa(idx)
	if c, ok := eo.cs[k]; ok {
		return c
	}
	labels := append([]obs.Label(nil), eo.base...)
	if labelKey != "" {
		labels = append(labels, obs.L(labelKey, strconv.Itoa(idx)))
	}
	c := eo.o.Counter(metric, labels...)
	eo.cs[k] = c
	return c
}

// histogram is counter's histogram counterpart; an empty labelKey means
// base labels only.
func (eo *engineObs) histogram(metric, labelKey string, idx int) *obs.Histogram {
	k := metric + "\x00" + strconv.Itoa(idx)
	if h, ok := eo.hs[k]; ok {
		return h
	}
	labels := append([]obs.Label(nil), eo.base...)
	if labelKey != "" {
		labels = append(labels, obs.L(labelKey, strconv.Itoa(idx)))
	}
	h := eo.o.Histogram(metric, labels...)
	eo.hs[k] = h
	return h
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
	e.eo = &engineObs{
		o:    o,
		pid:  pid,
		base: base,
		tids: map[int]bool{},
		cs:   map[string]*obs.Counter{},
		hs:   map[string]*obs.Histogram{},
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

// Timeline returns the attached recorder, nil when profiling is off.
func (e *Engine) Timeline() *timeline.Recorder { return e.rec }

// recordRound samples one priced round into the timeline recorder.
// Spans follow the trace-emission convention: communication starts at
// the round start; storage starts after it, or alongside it when
// phases overlap.
func (e *Engine) recordRound(start float64, rc RoundCost, kind string, recovery bool) {
	rec := e.rec
	phase := "data"
	switch {
	case recovery:
		phase = "recovery"
	case kind == RoundMetadata:
		phase = "metadata"
	}
	if phase != e.tlPhase {
		e.tlPhase = phase
		rec.J().Record(start, timeline.EvPhase, "run", phase)
	}
	commStart, ioStart := start, start+rc.CommTime
	if e.opt.Overlap {
		ioStart = start
	}
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

// NewEngine builds an engine. The machine config, storage parameters and
// options are validated once here.
func NewEngine(mc machine.Config, st StorageParams, opt Options) (*Engine, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	if err := st.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{mc: mc, st: st, stp: st.pricing(), opt: opt, targets: make([]targetState, st.Targets)}
	for t := range e.targets {
		e.targets[t].slow = 1
	}
	e.growNodes(mc.Nodes - 1)
	return e, nil
}

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
			eo.counter("sim.aggregators", "node", a.Node).Inc()
			// Resolve the paging counter even at zero severity so every
			// aggregator node reports the family (value 0 = no paging).
			paging := eo.counter("memmodel.paging_events", "node", a.Node)
			if s > 0 {
				paging.Inc()
				eo.counter("memmodel.paged_bytes", "node", a.Node).Add(int64(s * float64(a.BufferBytes)))
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
		e.nodes[node].aggs, e.opt.NahOpt, e.opt.ContentionBeta)
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

// RunRound prices one round and accumulates it into the totals.
func (e *Engine) RunRound(r Round) RoundCost { return e.runRound(r, false) }

// RunRecoveryRound prices a round of failure-handling traffic (e.g. the
// metadata re-exchange after an aggregator failover). It is priced by
// the same bottleneck model but attributed to recovery in the totals
// and trace.
func (e *Engine) RunRecoveryRound(r Round) RoundCost { return e.runRound(r, true) }

// AggMessage is a bundle of same-route messages within a round: the
// total payload and the number of positive-byte point-to-point messages
// it stands for. collio prices one AggMessage per (source node,
// destination node) pair of a work item instead of one Message per rank.
type AggMessage struct {
	SrcNode int
	DstNode int
	Bytes   int64 // total payload across the constituent messages
	Count   int   // number of positive-byte constituent messages
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

// AggRound is the aggregate form of a Round: per-route message bundles
// and all-to-all exchanges, plus the same per-target IOOps (storage
// accesses are already aggregated per target, so they need no new
// form).
type AggRound struct {
	Messages  []AggMessage
	Exchanges []Exchange
	IOOps     []IOOp
	// Kind tags the round for blame attribution, as in Round.
	Kind string
	// TraceMessages is the number of point-to-point messages the round
	// stands for including zero-byte ones the engine skips — what
	// TraceEntry.Messages reports for a Round. Zero means "use the sum
	// of Count".
	TraceMessages int
}

// RunAggRound prices one aggregate round and accumulates it into the
// totals, exactly as if RunRound had been fed the constituent
// point-to-point messages. The engine reduces messages to per-node byte
// loads before pricing, so the only rounding difference is the DRAM
// charge int64(MemCopyFactor*bytes), computed once per bundle instead of
// once per message: for integral MemCopyFactor (the default 2) the two
// are bit-identical; otherwise they differ by at most one byte per
// constituent message.
func (e *Engine) RunAggRound(r AggRound) RoundCost { return e.runAggRound(r, false) }

// RunAggRecoveryRound is RunAggRound attributed to recovery: the
// aggregate form of RunRecoveryRound, used to price a metadata
// re-exchange after a failover as per-node bundles instead of one
// message per surviving contributor.
func (e *Engine) RunAggRecoveryRound(r AggRound) RoundCost { return e.runAggRound(r, true) }

func (e *Engine) runAggRound(r AggRound, recovery bool) RoundCost {
	e.beginRound()
	var commBytes int64
	nMsgs := 0
	for _, m := range r.Messages {
		if m.Count < 0 {
			panic("sim: negative message count")
		}
		e.accMessage(m.SrcNode, m.DstNode, m.Bytes, m.Count)
		commBytes += m.Bytes
		nMsgs += m.Count
	}
	for _, x := range r.Exchanges {
		cb, n := e.accExchange(x)
		commBytes += cb
		nMsgs += n
	}
	if r.TraceMessages > 0 {
		nMsgs = r.TraceMessages
	}
	ops, ioBytes, ioDir := e.accIOOps(r.IOOps)
	return e.finishRound(r.Kind, recovery, nMsgs, ops, commBytes, ioBytes, ioDir)
}

// accIOOps accumulates a round's storage accesses and summarizes them
// for the trace: the number of single-target accesses they stand for,
// their bytes and the round's direction tag.
func (e *Engine) accIOOps(ops []IOOp) (n int, bytes int64, dir string) {
	for i := range ops {
		op := &ops[i]
		k := e.accIOOp(op)
		n += k
		bytes += int64(k) * op.Bytes
		dir = mergeIODir(dir, op.Write)
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

// accMessage accumulates a message bundle (count positive-byte messages
// totalling bytes on one src→dst route) into the round's node loads.
// RunRound calls it with count 1 per Message.
func (e *Engine) accMessage(src, dst int, bytes int64, count int) {
	if bytes < 0 {
		panic("sim: negative message size")
	}
	if bytes == 0 {
		return
	}
	e.growNodes(max(src, dst)) // the loads below must not move
	e.totals.ShufBytes += bytes
	e.nodes[src].shuffle += bytes
	if src == dst {
		// Intra-node: two extra DRAM crossings, no NIC.
		l := e.load(src)
		l.mem += pricing.IntraMemCopy(e.opt.MemCopyFactor, bytes)
		l.msgs += count
		return
	}
	e.totals.NetBytes += bytes
	e.nodes[dst].shuffle += bytes
	sl, dl := e.load(src), e.load(dst)
	sl.out += bytes
	dl.in += bytes
	sl.mem += pricing.MemCopy(e.opt.MemCopyFactor, bytes)
	dl.mem += pricing.MemCopy(e.opt.MemCopyFactor, bytes)
	sl.msgs += count
	dl.msgs += count
}

// accExchange accumulates an all-to-all bundle into the round's node
// loads without enumerating routes: each endpoint's load depends only on
// its own entry and the exchange totals (minus its intra-node share), so
// the cost is linear in endpoints. Per-node sums equal what accMessage
// over the dense (src, dst) product would produce; as with AggMessage
// bundles, the DRAM charge rounds once per aggregate, bit-identical for
// integral MemCopyFactor. Returns the total bytes moved and the number
// of constituent point-to-point messages.
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
	f := e.opt.MemCopyFactor
	for _, s := range x.Srcs {
		if s.Bytes == 0 {
			continue
		}
		e.totals.ShufBytes += s.Bytes * slots
		e.nodes[s.Node].shuffle += s.Bytes * slots
		l := e.load(s.Node)
		ms := e.nodes[s.Node].xSlots
		if ms > 0 {
			// Intra-node deliveries: two extra DRAM crossings, no NIC.
			l.mem += pricing.IntraMemCopy(f, s.Bytes*ms)
			l.msgs += s.Count * int(ms)
		}
		if inter := slots - ms; inter > 0 {
			e.totals.NetBytes += s.Bytes * inter
			l.out += s.Bytes * inter
			l.mem += pricing.MemCopy(f, s.Bytes*inter)
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
		own.shuffle += recvBytes
		l := e.load(d.Node)
		l.in += recvBytes
		l.mem += pricing.MemCopy(f, recvBytes)
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
func (e *Engine) accIOOp(op *IOOp) int {
	n := max(op.Count, 1)
	if op.Bytes < 0 {
		panic("sim: negative I/O size")
	}
	if op.Target < 0 || op.Target+n > e.st.Targets {
		panic(fmt.Sprintf("sim: I/O op for targets [%d,%d) outside [0,%d)", op.Target, op.Target+n, e.st.Targets))
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
	if op.Write {
		l.out += bytes
	} else {
		l.in += bytes
	}
	l.mem += int64(n) * pricing.MemCopy(e.opt.MemCopyFactor, op.Bytes)
	// A paged or straggling issuing node drains/fills its aggregation
	// buffer at degraded speed, throttling the storage access it
	// drives; injected retry/degradation delay is charged on top.
	unpaged := e.stp.ServiceTime(op.Bytes, op.Requests, op.Contiguous, op.Write) * e.nodeSlowdown(op.Node)
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
			metric := "pfs.bytes_read"
			if op.Write {
				metric = "pfs.bytes_written"
			}
			eo.counter(metric, "ost", t).Add(op.Bytes)
			eo.counter("pfs.requests", "ost", t).Add(int64(op.Requests))
			if op.Contiguous {
				eo.counter("pfs.stream_bytes", "ost", t).Add(op.Bytes)
			} else {
				eo.counter("pfs.noncontig_bytes", "ost", t).Add(op.Bytes)
			}
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

func (e *Engine) runRound(r Round, recovery bool) RoundCost {
	e.beginRound()
	for _, m := range r.Messages {
		e.accMessage(m.SrcNode, m.DstNode, m.Bytes, 1)
	}
	ops, ioBytes, ioDir := e.accIOOps(r.IOOps)
	var commBytes int64
	for _, m := range r.Messages {
		commBytes += m.Bytes
	}
	return e.finishRound(r.Kind, recovery, len(r.Messages), ops, commBytes, ioBytes, ioDir)
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
	slices.Sort(e.nodeIDs)
	slices.Sort(e.targetIDs)
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

	if e.opt.Trace {
		e.trace = append(e.trace, TraceEntry{
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
		})
	}
	if e.rec != nil {
		e.recordRound(start, rc, kind, recovery)
	}
	if eo := e.eo; eo != nil {
		eo.emitRound(roundEmit{
			round:     round,
			start:     start,
			rc:        rc,
			overlap:   e.opt.Overlap,
			binding:   binding,
			nodeIDs:   nodeIDs,
			nodeTime:  nodeTime,
			nodes:     e.nodes,
			targetIDs: targetIDs,
			targets:   e.targets,
			commBytes: commBytes, ioBytes: ioBytes,
			recovery:      recovery,
			kind:          kind,
			commPagedFrac: commPagedFrac,
			ioPagedFrac:   ioPagedFrac,
			ioDelayFrac:   ioDelayFrac,
			ioDir:         ioDir,
		})
	}
	return rc
}

// roundEmit bundles everything emitRound publishes about one round.
type roundEmit struct {
	round     int
	start     float64
	rc        RoundCost
	overlap   bool
	binding   Binding
	nodeIDs   []int
	nodeTime  []float64
	nodes     []nodeState // indexed by node ID
	targetIDs []int
	targets   []targetState // indexed by target ID
	commBytes int64
	ioBytes   int64
	recovery  bool
	kind      string

	commPagedFrac float64
	ioPagedFrac   float64
	ioDelayFrac   float64
	ioDir         string
}

// formatFrac renders a blame fraction compactly, "" for zero (the
// attribute is then omitted to keep traces small).
func formatFrac(f float64) string {
	if f <= 0 {
		return ""
	}
	return strconv.FormatFloat(f, 'g', 6, 64)
}

// emitRound publishes one round's spans and counters: the round and its
// comm/io phases on the timeline track, per-node shuffle spans, and
// per-target storage spans, all at simulated time. Phase spans carry the
// attributes the critical-path analyzer consumes: "phase" (shuffle,
// metadata, read, write), "paged_frac" and "delay_frac".
func (eo *engineObs) emitRound(r roundEmit) {
	eo.counter("sim.rounds", "", 0).Inc()
	eo.counter("sim.shuffle_bytes", "", 0).Add(r.commBytes)
	eo.counter("sim.io_bytes", "", 0).Add(r.ioBytes)
	eo.histogram("sim.round_seconds", "", 0).Observe(r.rc.Time)
	if r.recovery {
		eo.counter("sim.recovery_rounds", "", 0).Inc()
		eo.histogram("sim.recovery_seconds", "", 0).Observe(r.rc.Time)
	}
	for i, n := range r.nodeIDs {
		l := &r.nodes[n].load
		eo.counter("net.bytes_out", "node", n).Add(l.out)
		eo.counter("net.bytes_in", "node", n).Add(l.in)
		eo.counter("net.mem_bytes", "node", n).Add(l.mem)
		eo.counter("net.msgs", "node", n).Add(int64(l.msgs))
		eo.histogram("net.node_seconds", "node", n).Observe(r.nodeTime[i])
	}
	for _, t := range r.targetIDs {
		tl := &r.targets[t].load
		eo.histogram("pfs.queue_depth", "ost", t).Observe(float64(tl.requests))
		eo.histogram("pfs.target_seconds", "ost", t).Observe(tl.time)
	}

	tr := eo.o.Tracer()
	if tr == nil {
		return
	}
	name := fmt.Sprintf("round %d", r.round)
	kind := r.kind
	if kind == RoundData {
		kind = "data"
	}
	if r.recovery {
		name = fmt.Sprintf("recovery round %d", r.round)
		kind = "recovery"
	}
	roundSpan := tr.Begin(eo.pid, TIDTimeline, name, r.start,
		obs.A("binding", r.binding.String()),
		obs.A("kind", kind),
		obs.A("comm_bytes", strconv.FormatInt(r.commBytes, 10)),
		obs.A("io_bytes", strconv.FormatInt(r.ioBytes, 10)))
	roundSpan.End(r.start + r.rc.Time)
	commStart, ioStart := r.start, r.start+r.rc.CommTime
	if r.overlap {
		ioStart = r.start
	}
	if r.rc.CommTime > 0 {
		commPhase := "shuffle"
		if r.kind == RoundMetadata {
			commPhase = "metadata"
		}
		span := tr.Begin(eo.pid, TIDTimeline, "comm", commStart,
			obs.A("phase", commPhase),
			obs.A("bound_by", fmt.Sprintf("node %d (%s)", r.binding.CommNode, r.binding.CommResource)))
		if f := formatFrac(r.commPagedFrac); f != "" {
			span.Attr("paged_frac", f)
		}
		span.End(commStart + r.rc.CommTime)
	}
	if r.rc.IOTime > 0 {
		span := tr.Begin(eo.pid, TIDTimeline, "io", ioStart,
			obs.A("phase", r.ioDir),
			obs.A("bound_by", fmt.Sprintf("ost %d", r.binding.IOTarget)))
		if f := formatFrac(r.ioPagedFrac); f != "" {
			span.Attr("paged_frac", f)
		}
		if f := formatFrac(r.ioDelayFrac); f != "" {
			span.Attr("delay_frac", f)
		}
		span.End(ioStart + r.rc.IOTime)
	}
	for i, n := range r.nodeIDs {
		if r.nodeTime[i] <= 0 {
			continue
		}
		l := &r.nodes[n].load
		eo.nameTID(tidNodeBase+n, fmt.Sprintf("node %d shuffle", n))
		span := tr.Begin(eo.pid, tidNodeBase+n, "shuffle", commStart,
			obs.A("out_bytes", strconv.FormatInt(l.out, 10)),
			obs.A("in_bytes", strconv.FormatInt(l.in, 10)),
			obs.A("mem_bytes", strconv.FormatInt(l.mem, 10)),
			obs.A("msgs", strconv.Itoa(l.msgs)))
		span.End(commStart + r.nodeTime[i])
	}
	for _, t := range r.targetIDs {
		tl := &r.targets[t].load
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

// Trace returns the per-round records collected so far; empty unless
// Options.Trace was set.
func (e *Engine) Trace() []TraceEntry {
	return append([]TraceEntry(nil), e.trace...)
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
		eo.counter("sim.recovery_stalls", "", 0).Inc()
		eo.histogram("sim.recovery_seconds", "", 0).Observe(seconds)
		if tr := eo.o.Tracer(); tr != nil {
			span := tr.Begin(eo.pid, TIDTimeline, "recovery: "+kind, start,
				obs.A("phase", "recovery"))
			span.End(start + seconds)
		}
	}
}

// Totals returns a copy of the accumulated accounting. PerNodeShuffle
// holds an entry for every node that shuffled bytes: every shuffle
// charge is positive, so a nonzero total is exactly a node that was
// charged.
func (e *Engine) Totals() Totals {
	t := e.totals
	t.PerNodeShuffle = map[int]int64{}
	for n := range e.nodes {
		if b := e.nodes[n].shuffle; b != 0 {
			t.PerNodeShuffle[n] = b
		}
	}
	return t
}

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
