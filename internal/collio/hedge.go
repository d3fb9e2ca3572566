package collio

import (
	"sync/atomic"
)

// Hedger injects hedged duplicate deliveries into ExecVerified's
// verified shuffle: for a seeded, deterministic subset of
// (domain, contributor) chunks the verifier requests one duplicate
// resend through the existing ack/repair protocol even though the
// original already verified — the real-byte analogue of the cost
// model's quantile hedging, where the duplicate loses the race. The
// checksum path then enforces the invariant the chaos battery checks:
// a hedged duplicate is verified, counted and discarded, never
// scattered into user buffers, so hedged bytes are never
// double-counted.
//
// Hedging rides the ack/resend machinery, so it is active only when
// the checker has repair enabled. Counters are atomics: verifier
// goroutines for different domains hedge concurrently.
type Hedger struct {
	// Seed pins the hedged subset across runs.
	Seed int64

	hedged  atomic.Int64
	deduped atomic.Int64
}

// hedgeEvery makes a Hedger hedge about one in hedgeEvery verified
// remote chunks.
const hedgeEvery = 2

// Hedge reports whether the chunk of domain i from contributor rank is
// hedged. A pure function of (Seed, i, rank): verifiers decide
// unilaterally — the producer's ack loop serves any resend request —
// and the selection is identical across runs and goroutine schedules.
func (h *Hedger) Hedge(i, rank int) bool {
	if h == nil {
		return false
	}
	x := uint64(h.Seed)*0x9E3779B97F4A7C15 ^
		uint64(i+1)*0xBF58476D1CE4E5B9 ^
		uint64(rank+1)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x%hedgeEvery == 0
}

// CountHedged records one hedged duplicate request.
func (h *Hedger) CountHedged() {
	if h != nil {
		h.hedged.Add(1)
	}
}

// CountDeduped records n duplicate bytes verified and discarded.
func (h *Hedger) CountDeduped(n int64) {
	if h != nil {
		h.deduped.Add(n)
	}
}

// Hedged returns how many duplicate deliveries were requested.
func (h *Hedger) Hedged() int64 {
	if h == nil {
		return 0
	}
	return h.hedged.Load()
}

// DedupedBytes returns how many duplicate bytes arrived verified and
// were discarded without reaching user buffers.
func (h *Hedger) DedupedBytes() int64 {
	if h == nil {
		return 0
	}
	return h.deduped.Load()
}
