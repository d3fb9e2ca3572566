// Package collio defines the shared machinery of collective I/O
// strategies: the planning contract every strategy implements, the cost
// executor that prices a plan on the simulated machine, and the data
// executor that really moves bytes between ranks and the striped file
// system to verify a plan's semantics.
//
// A collective operation is processed in two separable stages, mirroring
// how ROMIO structures two-phase I/O:
//
//  1. Plan — from every rank's flattened access list, decide aggregation
//     groups, file domains, aggregator placement and buffer sizes. This is
//     the algorithmic content of both the baseline and the paper's
//     memory-conscious strategy, and it is pure metadata: it works
//     unchanged whether the operation covers kilobytes or terabytes.
//  2. Execute — either really move the bytes or price the movement on
//     the machine model (Cost, used by the benchmark harness at the
//     paper's full data sizes, where materializing the bytes would be
//     pointless). One data executor moves the bytes: ExecVerified, whose
//     integrity checker, silent-corruption replayer and hedger are each
//     optional; Exec, used by the library API and the correctness tests,
//     is ExecVerified with all three off.
package collio

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
	"mcio/internal/pfs"
)

// Op is the direction of a collective operation.
type Op int

// Collective operation directions.
const (
	Read Op = iota
	Write
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == Write {
		return "write"
	}
	return "read"
}

// RankRequest is one rank's declared access: the file-space extents its
// file view resolves to for this collective call.
type RankRequest struct {
	Rank    int
	Extents []pfs.Extent
}

// Bytes returns the total data bytes of the request.
func (r RankRequest) Bytes() int64 { return pfs.TotalBytes(pfs.Normalized(r.Extents)) }

// Params carries the tunables the paper names.
type Params struct {
	// CollBufSize is the per-aggregator collective buffer size — the
	// x-axis of every figure in the paper (ROMIO's cb_buffer_size). The
	// baseline uses it verbatim; the memory-conscious strategy treats it
	// as the desired buffer and adapts to host memory.
	CollBufSize int64
	// MsgInd is the per-aggregator message size that saturates one
	// aggregator's I/O path (the paper's Msg_ind); file domains are
	// bisected until a domain's data fits within it.
	MsgInd int64
	// MsgGroup is the target data volume of one aggregation group (the
	// paper's Msg_group).
	MsgGroup int64
	// Nah is the maximum number of aggregators one host accommodates
	// before losing performance (the paper's N_ah).
	Nah int
	// MemMin is the minimum available memory a node must have to host an
	// aggregator effectively (the paper's Mem_min).
	MemMin int64
}

// Validate reports an error for unusable parameters.
func (p Params) Validate() error {
	switch {
	case p.CollBufSize <= 0:
		return fmt.Errorf("collio: CollBufSize must be positive")
	case p.MsgInd <= 0:
		return fmt.Errorf("collio: MsgInd must be positive")
	case p.MsgGroup <= 0:
		return fmt.Errorf("collio: MsgGroup must be positive")
	case p.Nah <= 0:
		return fmt.Errorf("collio: Nah must be positive")
	case p.MemMin < 0:
		return fmt.Errorf("collio: MemMin must be non-negative")
	}
	return nil
}

// DefaultParams returns parameters sized for a given collective buffer:
// MsgInd = the buffer (one round fills one buffer), MsgGroup = 32 buffers,
// Nah = 4, MemMin = half the buffer.
func DefaultParams(collBuf int64) Params {
	return Params{
		CollBufSize: collBuf,
		MsgInd:      collBuf,
		MsgGroup:    32 * collBuf,
		Nah:         4,
		MemMin:      collBuf / 2,
	}
}

// Context is everything a strategy may consult while planning.
type Context struct {
	Topo    mpi.Topology
	Machine machine.Config
	// Avail is the available aggregation memory per node (bytes), indexed
	// by node ID — the quantity the paper's run-time aggregator selection
	// inspects.
	Avail  []int64
	FS     pfs.Config
	Params Params
	// Obs, when non-nil, receives metrics and spans from planning and
	// execution: planners publish placement decisions, Cost publishes the
	// per-round timeline and traffic counters, Exec wires the mpi runtime.
	// Nil disables observability at near-zero cost.
	Obs *obs.Observer
	// Timeline, when non-nil, receives time-resolved utilization series
	// and journal events from pricing: per-node and per-target busy
	// fractions from the engine, buffer-occupancy and memory-pressure
	// gauges, and fault/suspicion/breaker/failover events. Recording is
	// pure observation — costs are identical with or without it. Nil
	// (the default) disables profiling.
	Timeline *timeline.Recorder
}

// Validate reports an error when the context is internally inconsistent.
func (c *Context) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if err := c.FS.Validate(); err != nil {
		return err
	}
	if c.Topo.Size() == 0 {
		return fmt.Errorf("collio: empty topology")
	}
	if c.Topo.Nodes() > len(c.Avail) {
		return fmt.Errorf("collio: topology spans %d nodes but Avail has %d entries",
			c.Topo.Nodes(), len(c.Avail))
	}
	return nil
}

// Domain is one file domain: a set of file extents serviced by exactly one
// aggregator.
type Domain struct {
	// Extents is the data in this domain (normalized). The domain's span
	// may include holes no rank requested.
	Extents []pfs.Extent
	// Bytes is the total data bytes (sum of extent lengths).
	Bytes int64
	// Group is the aggregation group index this domain belongs to.
	Group int
	// Aggregator is the rank that services the domain.
	Aggregator int
	// AggNode is the node hosting the aggregator.
	AggNode int
	// BufferBytes is the collective buffer the aggregator cycles data
	// through; the operation needs ceil(Bytes/BufferBytes) rounds.
	BufferBytes int64
	// PagedSeverity is the fraction of the buffer that over-commits the
	// host's available memory, in [0,1].
	PagedSeverity float64
}

// Rounds returns how many collective buffer cycles the domain needs.
func (d Domain) Rounds() int {
	if d.Bytes == 0 {
		return 0
	}
	return int((d.Bytes + d.BufferBytes - 1) / d.BufferBytes)
}

// Plan is a strategy's decision for one collective operation.
type Plan struct {
	Strategy string
	// Domains, across all groups, ordered by file offset.
	Domains []Domain
	// Groups is the number of aggregation groups.
	Groups int
	// GroupRanks[g] lists the ranks whose data falls in group g —
	// metadata exchange is confined to these.
	GroupRanks [][]int
}

// Aggregators returns the distinct aggregator ranks of the plan, sorted.
func (p *Plan) Aggregators() []int {
	seen := map[int]bool{}
	for _, d := range p.Domains {
		seen[d.Aggregator] = true
	}
	out := make([]int, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// TotalBytes returns the data bytes covered by the plan's domains.
func (p *Plan) TotalBytes() int64 {
	var n int64
	for _, d := range p.Domains {
		n += d.Bytes
	}
	return n
}

// Validate is ValidateSet over a set built from reqs.
func (p *Plan) Validate(reqs []RankRequest) error { return p.ValidateSet(NewRequestSet(reqs)) }

// ValidateSet checks the structural invariants every plan must satisfy:
// domains are non-empty, canonical (pfs.IsNormalized: pricing slices a
// domain's data space assuming file order), disjoint, sorted, and they
// exactly cover the union of the requested extents. Extents of negative
// length, in a request or a domain, are errors.
//
// The check streams: sorted, disjoint, canonical domains yield their
// extents in file order, so the domain side is coalesced on the fly and
// compared with the set's request union extent by extent, without
// building the domains' concatenation.
func (p *Plan) ValidateSet(rs *RequestSet) error {
	if rank, e, ok := rs.NegativeExtent(); ok {
		return fmt.Errorf("collio: plan %s: rank %d requests an extent of negative length %d",
			p.Strategy, rank, e.Length)
	}
	want := rs.Union()
	// cur is the covered extent being coalesced; n counts the finished
	// ones, and bad is the index of the first that differs from want
	// (-1 while none), badExt its value.
	var cur, badExt pfs.Extent
	n, bad := 0, -1
	finish := func() {
		if cur.Length == 0 {
			return
		}
		if bad < 0 && n < len(want) && cur != want[n] {
			bad, badExt = n, cur
		}
		n++
	}
	var prevEnd int64 = -1
	for i, d := range p.Domains {
		if len(d.Extents) == 0 || d.Bytes == 0 {
			return fmt.Errorf("collio: plan %s: domain %d is empty", p.Strategy, i)
		}
		if !pfs.IsNormalized(d.Extents) {
			for _, e := range d.Extents {
				if e.Length < 0 {
					return fmt.Errorf("collio: plan %s: domain %d has an extent of negative length %d",
						p.Strategy, i, e.Length)
				}
			}
			return fmt.Errorf("collio: plan %s: domain %d extents are not canonical", p.Strategy, i)
		}
		if d.Bytes != pfs.TotalBytes(d.Extents) {
			return fmt.Errorf("collio: plan %s: domain %d bytes %d != extents %d",
				p.Strategy, i, d.Bytes, pfs.TotalBytes(d.Extents))
		}
		if d.BufferBytes <= 0 {
			return fmt.Errorf("collio: plan %s: domain %d has no buffer", p.Strategy, i)
		}
		if d.Extents[0].Offset <= prevEnd {
			return fmt.Errorf("collio: plan %s: domain %d overlaps or is out of order", p.Strategy, i)
		}
		prevEnd = d.Extents[len(d.Extents)-1].End() - 1
		if d.Aggregator < 0 {
			return fmt.Errorf("collio: plan %s: domain %d has no aggregator", p.Strategy, i)
		}
		if d.Group < 0 || d.Group >= p.Groups {
			return fmt.Errorf("collio: plan %s: domain %d group %d outside [0,%d)",
				p.Strategy, i, d.Group, p.Groups)
		}
		// Only a domain's first extent can touch the one before it.
		for _, e := range d.Extents {
			if cur.Length > 0 && e.Offset == cur.End() {
				cur.Length += e.Length
				continue
			}
			finish()
			cur = e
		}
	}
	finish()
	if n != len(want) {
		return fmt.Errorf("collio: plan %s: domains cover %d extents, requests need %d",
			p.Strategy, n, len(want))
	}
	if bad >= 0 {
		return fmt.Errorf("collio: plan %s: coverage mismatch at extent %d: %v != %v",
			p.Strategy, bad, badExt, want[bad])
	}
	return nil
}

// planBuilds counts the plans RecordPlanMetrics has published.
var planBuilds atomic.Int64

// PlanBuilds returns how many plans this process's planners have built:
// each planner publishes every plan it returns through
// RecordPlanMetrics, which counts it, observed or not.
func PlanBuilds() int64 { return planBuilds.Load() }

// RecordPlanMetrics publishes a plan's shape — group count, domain count,
// aggregator placement, buffer sizing, paging exposure — into an
// observer, labelled by strategy so runs comparing strategies on one
// registry stay separable. Nil-safe; planners call this unconditionally.
func RecordPlanMetrics(o *obs.Observer, p *Plan) {
	planBuilds.Add(1)
	if o == nil {
		return
	}
	s := obs.L("strategy", p.Strategy)
	o.Gauge("plan.groups", s).Set(float64(p.Groups))
	o.Gauge("plan.domains", s).Set(float64(len(p.Domains)))
	o.Gauge("plan.aggregators", s).Set(float64(len(p.Aggregators())))
	bufH := o.Histogram("plan.buffer_bytes", s)
	paged := 0
	aggsOnNode := map[int]int{}
	for _, d := range p.Domains {
		bufH.Observe(float64(d.BufferBytes))
		aggsOnNode[d.AggNode]++
		if d.PagedSeverity > 0 {
			paged++
		}
	}
	o.Gauge("plan.paged_domains", s).Set(float64(paged))
	for node, n := range aggsOnNode {
		o.Gauge("plan.aggs_on_node", s, obs.L("node", strconv.Itoa(node))).Set(float64(n))
	}
}

// Strategy plans collective operations.
type Strategy interface {
	// Name identifies the strategy in reports.
	Name() string
	// Plan is PlanSet over a set built from reqs.
	Plan(ctx *Context, reqs []RankRequest) (*Plan, error)
	// PlanSet decides groups, domains and aggregators for the requests of
	// rs. Requests with no extents are permitted (ranks may sit out a
	// collective call).
	PlanSet(ctx *Context, rs *RequestSet) (*Plan, error)
}
