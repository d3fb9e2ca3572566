package health

import (
	"fmt"
	"sort"
)

// BreakerState is the circuit-breaker state machine position.
type BreakerState int

const (
	// BreakerClosed passes traffic and counts failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails fast until the probe deadline.
	BreakerOpen
	// BreakerHalfOpen lets one probe through; its outcome decides.
	BreakerHalfOpen
)

// String names the state for reports and metrics labels.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// The circuit breaker's constants.
const (
	// failureThreshold opens a breaker after this many suspicion events
	// without an intervening success.
	failureThreshold = 3
	// openSeconds is how long a breaker fails fast before letting a
	// half-open probe through, in simulated seconds.
	openSeconds = 0.05
	// backoffFactor grows the open window each time a probe fails.
	backoffFactor = 2
	// maxOpenSeconds caps the grown open window.
	maxOpenSeconds = 20 * openSeconds
)

// Breaker is one deterministic circuit breaker driven by an explicit
// simulated clock: Closed → (N failures) → Open → (deadline) →
// HalfOpen probe → Closed on success, back to Open (longer) on a
// failed probe. It is not safe for concurrent use; the
// single-goroutine cost loop owns it and passes simulated `now`
// everywhere, so the same call sequence reproduces the same decisions
// forever.
type Breaker struct {
	state     BreakerState
	failures  int
	probeAt   float64
	openSpan  float64
	opens     int
	fastFails int
}

// NewBreaker builds a closed breaker.
func NewBreaker() *Breaker {
	return &Breaker{openSpan: openSeconds}
}

// Allow reports whether an access may proceed at simulated time now.
// Closed always allows. Open allows nothing until the probe deadline,
// at which point the breaker moves to HalfOpen and admits exactly one
// probe. Denied accesses are counted as fast-fails.
func (b *Breaker) Allow(now float64) bool {
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now >= b.probeAt {
			b.state = BreakerHalfOpen
			return true
		}
		b.fastFails++
		return false
	default: // BreakerHalfOpen: the probe is in flight; hold the line.
		b.fastFails++
		return false
	}
}

// OnFailure records one suspicion event (a retry ladder fired, a
// probe failed) at simulated time now.
func (b *Breaker) OnFailure(now float64) {
	switch b.state {
	case BreakerClosed:
		b.failures++
		if b.failures >= failureThreshold {
			b.open(now)
		}
	case BreakerHalfOpen:
		// Failed probe: back off harder.
		b.openSpan = min(b.openSpan*backoffFactor, maxOpenSeconds)
		b.open(now)
	case BreakerOpen:
		// Already failing fast; nothing to learn.
	}
}

// OnSuccess records one healthy access at simulated time now: it
// resets the failure count and closes a half-open breaker.
func (b *Breaker) OnSuccess(now float64) {
	b.failures = 0
	if b.state == BreakerHalfOpen {
		b.state = BreakerClosed
		b.openSpan = openSeconds
	}
}

func (b *Breaker) open(now float64) {
	b.state = BreakerOpen
	b.failures = 0
	b.probeAt = now + b.openSpan
	b.opens++
}

// State returns the current state.
func (b *Breaker) State() BreakerState { return b.state }

// Opens returns how many times the breaker has opened.
func (b *Breaker) Opens() int { return b.opens }

// FastFails returns how many accesses were denied while open.
func (b *Breaker) FastFails() int { return b.fastFails }

// Window is a small fixed-size sliding window with deterministic
// quantile queries, used for the hedging trigger ("re-request when a
// message is slower than the p95 of recent deliveries"). Not safe for
// concurrent use.
type Window struct {
	buf  []float64
	next int
	full bool
}

// NewWindow builds a window holding the last n samples (min 8).
func NewWindow(n int) *Window {
	if n < 8 {
		n = 8
	}
	return &Window{buf: make([]float64, n)}
}

// Add records one sample.
func (w *Window) Add(v float64) {
	w.buf[w.next] = v
	w.next++
	if w.next == len(w.buf) {
		w.next = 0
		w.full = true
	}
}

// Len returns how many samples the window currently holds.
func (w *Window) Len() int {
	if w.full {
		return len(w.buf)
	}
	return w.next
}

// Quantile returns the p-quantile (0..1) of the held samples by
// nearest-rank on a sorted copy; 0 when empty.
func (w *Window) Quantile(p float64) float64 {
	n := w.Len()
	if n == 0 {
		return 0
	}
	sorted := make([]float64, n)
	copy(sorted, w.buf[:n])
	sort.Float64s(sorted)
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	idx := int(p * float64(n-1))
	return sorted[idx]
}
