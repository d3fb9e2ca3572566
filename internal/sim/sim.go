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
	"sort"
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

// IOOp is one storage access issued by an aggregator within a round.
type IOOp struct {
	Target     int   // storage target (OST) index
	Node       int   // compute node issuing the access
	Bytes      int64 // payload bytes
	Requests   int   // number of distinct requests this access costs
	Contiguous bool  // whether the access streams contiguously
	Write      bool  // direction; pricing is symmetric but totals separate
	// DelaySeconds is extra service time charged to the target beyond
	// the request/stream model — retry backoff or degraded-target
	// penalties from fault injection. Zero for healthy accesses.
	DelaySeconds float64
	// Degraded marks a breaker fast-fail: the issuer did not wait on
	// the target's normal service path (it streamed degraded instead,
	// priced through DelaySeconds), so a gray target-slowdown
	// multiplier does not apply — that waiting is exactly what the
	// open breaker avoids.
	Degraded bool
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
type Engine struct {
	mc       machine.Config
	st       StorageParams
	opt      Options
	aggsPer  map[int]int     // node -> active aggregator count
	paged    map[int]float64 // node -> worst paging severity present
	slowdown map[int]float64 // node -> straggler bandwidth divisor (> 1)
	tgtSlow  map[int]float64 // target -> gray service-time multiplier (> 1)
	totals   Totals
	trace    []TraceEntry
	eo       *engineObs
	rec      *timeline.Recorder
	tlPhase  string // last phase journaled to the timeline recorder

	// runRound scratch, recycled round to round (the Engine is
	// single-goroutine by contract). The maps are drained into the
	// freelists at the start of each round; emitRound reads them
	// synchronously, so nothing outlives the call that filled it.
	scLoads     map[int]*nodeLoad
	scTargets   map[int]*targetLoad
	freeLoads   []*nodeLoad
	freeTargets []*targetLoad
	scNodeIDs   []int
	scTargetIDs []int
	scNodeTime  []float64
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
func (e *Engine) recordRound(start float64, rc RoundCost, kind string, recovery bool,
	nodeIDs []int, nodeTime []float64, loads map[int]*nodeLoad,
	targetIDs []int, targets map[int]*targetLoad) {
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
	for i, n := range nodeIDs {
		ent := timeline.Ent("node", n)
		rec.AddSpan(ent, "busy", commStart, commStart+nodeTime[i])
		l := loads[n]
		rec.AddRate(ent, "nic_bytes", commStart, float64(l.in+l.out))
	}
	for _, t := range targetIDs {
		ent := timeline.Ent("ost", t)
		load := targets[t]
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
	return &Engine{
		mc:        mc,
		st:        st,
		opt:       opt,
		aggsPer:   map[int]int{},
		paged:     map[int]float64{},
		slowdown:  map[int]float64{},
		tgtSlow:   map[int]float64{},
		totals:    Totals{PerNodeShuffle: map[int]int64{}},
		scLoads:   map[int]*nodeLoad{},
		scTargets: map[int]*targetLoad{},
	}, nil
}

// SetAggregators declares the aggregator placement for the operation being
// priced. It resets any previous placement. Severities outside [0,1] are
// clamped.
func (e *Engine) SetAggregators(aggs []AggregatorPlacement) {
	e.aggsPer = map[int]int{}
	e.paged = map[int]float64{}
	for _, a := range aggs {
		e.aggsPer[a.Node]++
		s := a.PagedSeverity
		if s < 0 {
			s = 0
		}
		if s > 1 {
			s = 1
		}
		if s > e.paged[a.Node] {
			e.paged[a.Node] = s
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
		delete(e.slowdown, node)
		return
	}
	e.slowdown[node] = factor
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
	e.paged[node] = severity
}

// SetTargetSlowdown declares a gray storage degradation: service time
// for accesses to target is multiplied by factor until the next call.
// Factor <= 1 clears it. The excess over healthy service time is
// charged as injected delay, so blame attribution groups it with the
// other fault-induced waiting rather than with honest streaming work.
func (e *Engine) SetTargetSlowdown(target int, factor float64) {
	if factor <= 1 {
		delete(e.tgtSlow, target)
		return
	}
	e.tgtSlow[target] = factor
}

// targetSlowdown returns target's gray service-time multiplier (1 = healthy).
func (e *Engine) targetSlowdown(target int) float64 {
	if f, ok := e.tgtSlow[target]; ok {
		return f
	}
	return 1
}

// nodeSlowdown returns node's straggler bandwidth divisor (1 = healthy).
func (e *Engine) nodeSlowdown(node int) float64 {
	if f, ok := e.slowdown[node]; ok {
		return f
	}
	return 1
}

// pagedSlowdown returns the multiplicative slowdown of everything an
// aggregator on this node touches once its buffer pages: a paged
// aggregation buffer stalls the copy into/out of the buffer, the NIC
// transfers that feed it, and the storage accesses that drain it, because
// every one of those reads or writes the faulting pages. Severity s
// interpolates linearly between full speed (1x) and running the buffer at
// PagedBandwidthFraction of DRAM speed.
func (e *Engine) pagedSlowdown(node int) float64 {
	return pricing.PagedSlowdown(e.paged[node], e.mc.PagedBandwidthFraction)
}

// effMemBW returns the node's effective off-chip bandwidth for shuffle
// traffic given paging state and aggregator contention.
func (e *Engine) effMemBW(node int) float64 {
	return pricing.EffMemBW(e.mc.MemBandwidth, e.pagedSlowdown(node), e.nodeSlowdown(node),
		e.aggsPer[node], e.opt.NahOpt, e.opt.ContentionBeta)
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
	var ioBytes int64
	ioDir := ""
	for _, op := range r.IOOps {
		e.accIOOp(op)
		ioBytes += op.Bytes
		ioDir = mergeIODir(ioDir, op.Write)
	}
	return e.finishRound(r.Kind, recovery, nMsgs, len(r.IOOps), commBytes, ioBytes, ioDir)
}

// beginRound recycles the previous round's scratch: drained maps feed
// the freelists so steady-state rounds allocate nothing.
func (e *Engine) beginRound() {
	for n, l := range e.scLoads {
		*l = nodeLoad{}
		e.freeLoads = append(e.freeLoads, l)
		delete(e.scLoads, n)
	}
	for t, tl := range e.scTargets {
		*tl = targetLoad{}
		e.freeTargets = append(e.freeTargets, tl)
		delete(e.scTargets, t)
	}
}

// load returns the round's accumulator for a node, creating it from the
// freelist on first touch.
func (e *Engine) load(n int) *nodeLoad {
	l := e.scLoads[n]
	if l == nil {
		if k := len(e.freeLoads); k > 0 {
			l = e.freeLoads[k-1]
			e.freeLoads = e.freeLoads[:k-1]
		} else {
			l = &nodeLoad{}
		}
		e.scLoads[n] = l
	}
	return l
}

// target is load's counterpart for storage targets.
func (e *Engine) target(t int) *targetLoad {
	tl := e.scTargets[t]
	if tl == nil {
		if k := len(e.freeTargets); k > 0 {
			tl = e.freeTargets[k-1]
			e.freeTargets = e.freeTargets[:k-1]
		} else {
			tl = &targetLoad{}
		}
		e.scTargets[t] = tl
	}
	return tl
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
	e.totals.ShufBytes += bytes
	e.totals.PerNodeShuffle[src] += bytes
	if src == dst {
		// Intra-node: two extra DRAM crossings, no NIC.
		l := e.load(src)
		l.mem += pricing.IntraMemCopy(e.opt.MemCopyFactor, bytes)
		l.msgs += count
		return
	}
	e.totals.NetBytes += bytes
	e.totals.PerNodeShuffle[dst] += bytes
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
	}
	if slots == 0 || totalBytes == 0 {
		return 0, 0
	}
	// Intra-node split inputs: receiving slots per source node, sent
	// bytes per destination node.
	slotsAt := make(map[int]int64, len(x.Dsts))
	for _, d := range x.Dsts {
		slotsAt[d.Node] += int64(d.Slots)
	}
	sentAt := make(map[int]ExchangeSrc, len(x.Srcs))
	for _, s := range x.Srcs {
		a := sentAt[s.Node]
		a.Bytes += s.Bytes
		a.Count += s.Count
		sentAt[s.Node] = a
	}
	f := e.opt.MemCopyFactor
	for _, s := range x.Srcs {
		if s.Bytes == 0 {
			continue
		}
		e.totals.ShufBytes += s.Bytes * slots
		e.totals.PerNodeShuffle[s.Node] += s.Bytes * slots
		l := e.load(s.Node)
		if ms := slotsAt[s.Node]; ms > 0 {
			// Intra-node deliveries: two extra DRAM crossings, no NIC.
			l.mem += pricing.IntraMemCopy(f, s.Bytes*ms)
			l.msgs += s.Count * int(ms)
		}
		if inter := slots - slotsAt[s.Node]; inter > 0 {
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
		own := sentAt[d.Node]
		recvBytes := (totalBytes - own.Bytes) * int64(d.Slots)
		if recvBytes == 0 {
			continue
		}
		e.totals.PerNodeShuffle[d.Node] += recvBytes
		l := e.load(d.Node)
		l.in += recvBytes
		l.mem += pricing.MemCopy(f, recvBytes)
		l.msgs += (totalCount - own.Count) * d.Slots
	}
	return commBytes, msgs
}

// accIOOp accumulates one storage access into the round's node and
// target loads. Storage accesses also traverse the issuing node's NIC
// and DRAM.
func (e *Engine) accIOOp(op IOOp) {
	if op.Bytes < 0 {
		panic("sim: negative I/O size")
	}
	if op.Target < 0 || op.Target >= e.st.Targets {
		panic(fmt.Sprintf("sim: I/O op for target %d outside [0,%d)", op.Target, e.st.Targets))
	}
	if op.Bytes == 0 && op.Requests == 0 {
		return
	}
	e.totals.IOBytes += op.Bytes
	e.totals.Requests += op.Requests
	l := e.load(op.Node)
	if op.Write {
		l.out += op.Bytes
	} else {
		l.in += op.Bytes
	}
	l.mem += pricing.MemCopy(e.opt.MemCopyFactor, op.Bytes)
	tl := e.target(op.Target)
	if op.DelaySeconds < 0 {
		panic("sim: negative I/O delay")
	}
	// A paged or straggling issuing node drains/fills its aggregation
	// buffer at degraded speed, throttling the storage access it
	// drives; injected retry/degradation delay is charged on top.
	unpaged := e.st.pricing().ServiceTime(op.Bytes, op.Requests, op.Contiguous, op.Write) * e.nodeSlowdown(op.Node)
	delay := op.DelaySeconds
	// A gray-degraded target serves every access slower; the excess
	// over healthy service counts as fault delay, not honest work.
	// Degraded (breaker fast-fail) accesses never waited on the
	// slowed service path, so they skip the multiplier.
	if f := e.targetSlowdown(op.Target); f > 1 && !op.Degraded {
		delay += unpaged * (f - 1)
	}
	tl.time += unpaged*e.pagedSlowdown(op.Node) + delay
	tl.pagedExcess += unpaged * (e.pagedSlowdown(op.Node) - 1)
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
		eo.counter(metric, "ost", op.Target).Add(op.Bytes)
		eo.counter("pfs.requests", "ost", op.Target).Add(int64(op.Requests))
		if op.Contiguous {
			eo.counter("pfs.stream_bytes", "ost", op.Target).Add(op.Bytes)
		} else {
			eo.counter("pfs.noncontig_bytes", "ost", op.Target).Add(op.Bytes)
		}
	}
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
	for _, op := range r.IOOps {
		e.accIOOp(op)
	}
	var commBytes, ioBytes int64
	for _, m := range r.Messages {
		commBytes += m.Bytes
	}
	ioDir := ""
	for _, op := range r.IOOps {
		ioBytes += op.Bytes
		ioDir = mergeIODir(ioDir, op.Write)
	}
	return e.finishRound(r.Kind, recovery, len(r.Messages), len(r.IOOps), commBytes, ioBytes, ioDir)
}

// finishRound prices the accumulated node and target loads, folds the
// round into the totals, and publishes trace/timeline/observability
// records. traceMsgs/traceOps are the constituent counts reported in
// the trace entry; commBytes/ioBytes/ioDir summarize the round's
// traffic for the same consumers.
func (e *Engine) finishRound(kind string, recovery bool, traceMsgs, traceOps int, commBytes, ioBytes int64, ioDir string) RoundCost {
	loads, targets := e.scLoads, e.scTargets

	// Node iteration is sorted so bottleneck ties and emitted spans are
	// deterministic run to run.
	nodeIDs := e.scNodeIDs[:0]
	for n := range loads {
		nodeIDs = append(nodeIDs, n)
	}
	sort.Ints(nodeIDs)
	e.scNodeIDs = nodeIDs
	targetIDs := e.scTargetIDs[:0]
	for t := range targets {
		targetIDs = append(targetIDs, t)
	}
	sort.Ints(targetIDs)
	e.scTargetIDs = targetIDs

	binding := Binding{CommNode: -1, IOTarget: -1}
	var comm, commPagedFrac float64
	if cap(e.scNodeTime) < len(nodeIDs) {
		e.scNodeTime = make([]float64, len(nodeIDs))
	}
	nodeTime := e.scNodeTime[:len(nodeIDs)] // every slot is written below
	for i, n := range nodeIDs {
		l := loads[n]
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
		if tt := targets[t].time; tt > io {
			io = tt
			binding.IOTarget = t
			ioPagedFrac, ioDelayFrac = 0, 0
			if tt > 0 {
				ioPagedFrac = targets[t].pagedExcess / tt
				ioDelayFrac = targets[t].delay / tt
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
		e.recordRound(start, rc, kind, recovery, nodeIDs, nodeTime, loads, targetIDs, targets)
	}
	if eo := e.eo; eo != nil {
		eo.emitRound(roundEmit{
			round:    round,
			start:    start,
			rc:       rc,
			overlap:  e.opt.Overlap,
			binding:  binding,
			nodeIDs:  nodeIDs,
			nodeTime: nodeTime,
			loads:    loads,
			targets:  targets, targetIDs: targetIDs,
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
	loads     map[int]*nodeLoad
	targetIDs []int
	targets   map[int]*targetLoad
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
		l := r.loads[n]
		eo.counter("net.bytes_out", "node", n).Add(l.out)
		eo.counter("net.bytes_in", "node", n).Add(l.in)
		eo.counter("net.mem_bytes", "node", n).Add(l.mem)
		eo.counter("net.msgs", "node", n).Add(int64(l.msgs))
		eo.histogram("net.node_seconds", "node", n).Observe(r.nodeTime[i])
	}
	for _, t := range r.targetIDs {
		tl := r.targets[t]
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
		l := r.loads[n]
		eo.nameTID(tidNodeBase+n, fmt.Sprintf("node %d shuffle", n))
		span := tr.Begin(eo.pid, tidNodeBase+n, "shuffle", commStart,
			obs.A("out_bytes", strconv.FormatInt(l.out, 10)),
			obs.A("in_bytes", strconv.FormatInt(l.in, 10)),
			obs.A("mem_bytes", strconv.FormatInt(l.mem, 10)),
			obs.A("msgs", strconv.Itoa(l.msgs)))
		span.End(commStart + r.nodeTime[i])
	}
	for _, t := range r.targetIDs {
		tl := r.targets[t]
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

// Totals returns a copy of the accumulated accounting.
func (e *Engine) Totals() Totals {
	t := e.totals
	t.PerNodeShuffle = make(map[int]int64, len(e.totals.PerNodeShuffle))
	for k, v := range e.totals.PerNodeShuffle {
		t.PerNodeShuffle[k] = v
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
