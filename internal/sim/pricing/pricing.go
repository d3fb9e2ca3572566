// Package pricing holds the pure cost formulas of the simulator
// (internal/sim), whether a round arrives as per-rank messages or as
// per-node bundles. Every formula here is a pure function of its
// arguments — no state, no maps, no observability — so both forms of a
// round price with literally the same floating-point expressions and
// the bundled-vs-per-rank property tests can demand exact equality.
//
// Floating-point note: the functions preserve the historical operation
// order of the simulator (e.g. memBW / pagedSlow / nodeSlow, then the
// contention divisor) because reassociating float divisions changes
// low-order bits and would break the byte-identity contracts the bench
// ledger tests pin.
package pricing

import "math"

// Comm-phase binding resources: which term of a node's communication
// time set the bound.
const (
	BindNICOut  = "nic-out"
	BindNICIn   = "nic-in"
	BindMem     = "mem"
	BindLatency = "latency"
)

// Memory-model constants of the shipped experiments.
const (
	// MemCopyFactor is how many times each shuffled byte crosses a
	// node's DRAM (copy into the aggregation buffer and out to the NIC).
	MemCopyFactor = 2
	// ContentionBeta scales the bandwidth degradation per aggregator
	// beyond the per-node optimum N_ah:
	// effBW = memBW / (1 + ContentionBeta*max(0, k-N_ah)).
	ContentionBeta = 0.35
)

// NodeLoad is one node's traffic within a round: NIC bytes in/out, DRAM
// bytes, and the number of latency-charged messages.
type NodeLoad struct {
	In, Out int64
	Mem     int64
	Msgs    int
}

// PagedSlowdown is the multiplicative slowdown of everything an
// aggregator on a node touches once its buffer pages. Severity s in
// [0, 1] interpolates linearly between full speed (1x) and running the
// buffer at pagedBWFrac of DRAM speed; s <= 0 means unpaged.
func PagedSlowdown(severity, pagedBWFrac float64) float64 {
	if severity <= 0 {
		return 1
	}
	return 1 / (1 - severity*(1-pagedBWFrac))
}

// EffMemBW is a node's effective off-chip bandwidth for shuffle traffic
// given its paging and straggler state and aggregator contention: memBW
// degraded by paging and the straggler divisor, then by contention when
// more than nahOpt aggregators share the node.
func EffMemBW(memBW, pagedSlow, nodeSlow float64, aggs, nahOpt int) float64 {
	bw := memBW / pagedSlow / nodeSlow
	if aggs > nahOpt {
		bw /= 1 + ContentionBeta*float64(aggs-nahOpt)
	}
	return bw
}

// MemCopy is the DRAM traffic charged for moving bytes through a node
// once (copy in + copy out: MemCopyFactor crossings).
func MemCopy(bytes int64) int64 {
	return int64(MemCopyFactor * float64(bytes))
}

// IntraMemCopy is the DRAM traffic of an intra-node transfer: both
// endpoints live on the node, so the bytes cross DRAM twice as often.
// (Kept as a single float expression — int64(f*b*2), not
// 2*int64(f*b) — to match the simulator's historical rounding.)
func IntraMemCopy(bytes int64) int64 {
	return int64(MemCopyFactor * float64(bytes) * 2)
}

// CommTime prices one node's communication phase: NIC injection and
// ejection streams scaled by the node's combined slowdown, the DRAM
// stream at effMemBW, and a per-message latency charge added on top of
// the largest stream term. It returns the phase time, which resource
// bound it, and the latency term (needed by paging blame, which excludes
// it).
func CommTime(l NodeLoad, nicBW, slow, effMemBW, netLatency float64) (t float64, res string, tlat float64) {
	tout := float64(l.Out) / nicBW * slow
	tin := float64(l.In) / nicBW * slow
	tm := float64(l.Mem) / effMemBW
	tlat = float64(l.Msgs) * netLatency
	t = tout
	res = BindNICOut
	if tin > t {
		t, res = tin, BindNICIn
	}
	if tm > t {
		t, res = tm, BindMem
	}
	if tlat > t {
		res = BindLatency
	}
	t += tlat
	return t, res, tlat
}

// PagedCommFraction is the share of a node's communication time spent
// waiting on paging: every byte-stream term of t scales linearly in the
// paging slowdown, the latency term does not, so the blame is the excess
// over the unpaged time of the same traffic.
func PagedCommFraction(t, tlat, pagedSlow float64) float64 {
	if pagedSlow <= 1 || t <= 0 {
		return 0
	}
	return (t - tlat) * (1 - 1/pagedSlow) / t
}

// Storage prices accesses to one class of parallel-file-system targets.
type Storage struct {
	TargetBW        float64 // streaming write bandwidth per target, bytes/s
	ReadBWFactor    float64 // scales TargetBW for reads; <= 0 means symmetric
	ReqOverhead     float64 // fixed cost per request, seconds (seek+RPC)
	NoncontigFactor float64 // stream-time inflation for noncontiguous access
}

// StreamBW is the effective streaming bandwidth for the direction.
func (s Storage) StreamBW(write bool) float64 {
	if write || s.ReadBWFactor <= 0 {
		return s.TargetBW
	}
	return s.TargetBW * s.ReadBWFactor
}

// ServiceTime is the unpaged, un-slowed service time of one access:
// per-request overhead plus streaming time, inflated when noncontiguous.
// Callers layer node slowdown, paging and injected delay on top.
func (s Storage) ServiceTime(bytes int64, requests int, contiguous, write bool) float64 {
	stream := float64(bytes) / s.StreamBW(write)
	if !contiguous {
		stream *= s.NoncontigFactor
	}
	return s.ReqOverhead*float64(requests) + stream
}

// RoundWall combines the communication and storage bottlenecks into the
// round's wall time: concurrent phases overlap (max), classic blocking
// two-phase sums them.
func RoundWall(comm, io float64, overlap bool) float64 {
	if overlap {
		return math.Max(comm, io)
	}
	return comm + io
}
