package pfs

import (
	"strconv"

	"mcio/internal/health"
	"mcio/internal/obs"
)

// BreakerSet holds one circuit breaker per storage target, layered
// *under* the retry ladder: the ladder handles the individual flaky
// access, the breaker notices that a target keeps needing the ladder
// and takes it out of normal service — open after N suspicion events,
// a half-open probe after a cool-down, closed again on a healthy
// probe. While a target's breaker is open, accesses fail fast into
// degraded service instead of each paying the full backoff ladder.
//
// Decisions depend only on the explicit simulated clock passed by the
// caller, never on host time or access interleaving: the deterministic
// single-goroutine cost loop owns the set. It is intentionally NOT
// wired into FileSystem.access, which runs under concurrent aggregator
// goroutines where breaker state transitions would make byte-level
// runs scheduling-dependent (see WriteCorrupter's determinism
// contract).
type BreakerSet struct {
	breakers map[int]*health.Breaker

	o     *obs.Observer
	opens map[int]*obs.Counter
	fast  map[int]*obs.Counter
}

// NewBreakerSet builds an empty set.
func NewBreakerSet() *BreakerSet {
	return &BreakerSet{
		breakers: map[int]*health.Breaker{},
		opens:    map[int]*obs.Counter{},
		fast:     map[int]*obs.Counter{},
	}
}

// SetObserver attaches metrics: pfs.breaker_opens{ost} and
// pfs.breaker_fast_fails{ost} counters.
func (bs *BreakerSet) SetObserver(o *obs.Observer) {
	if bs == nil {
		return
	}
	bs.o = o
	bs.opens = map[int]*obs.Counter{}
	bs.fast = map[int]*obs.Counter{}
}

func (bs *BreakerSet) breaker(target int) *health.Breaker {
	b := bs.breakers[target]
	if b == nil {
		b = health.NewBreaker()
		bs.breakers[target] = b
	}
	return b
}

// Allow reports whether an access to target may take the normal path
// at simulated time now. False means the breaker is open: the caller
// should fail fast into degraded service instead of running the retry
// ladder.
func (bs *BreakerSet) Allow(target int, now float64) bool {
	if bs == nil {
		return true
	}
	ok := bs.breaker(target).Allow(now)
	if !ok && bs.o != nil {
		c := bs.fast[target]
		if c == nil {
			c = bs.o.Counter("pfs.breaker_fast_fails", obs.L("ost", strconv.Itoa(target)))
			bs.fast[target] = c
		}
		c.Inc()
	}
	return ok
}

// OnFailure records one suspicion event against target (its retry
// ladder fired, or a probe failed) at simulated time now.
func (bs *BreakerSet) OnFailure(target int, now float64) {
	if bs == nil {
		return
	}
	b := bs.breaker(target)
	before := b.Opens()
	b.OnFailure(now)
	if b.Opens() > before && bs.o != nil {
		c := bs.opens[target]
		if c == nil {
			c = bs.o.Counter("pfs.breaker_opens", obs.L("ost", strconv.Itoa(target)))
			bs.opens[target] = c
		}
		c.Inc()
	}
}

// OnSuccess records one healthy access to target at simulated time
// now, closing a half-open breaker.
func (bs *BreakerSet) OnSuccess(target int, now float64) {
	if bs == nil {
		return
	}
	bs.breaker(target).OnSuccess(now)
}

// State returns target's current breaker state (closed for unseen
// targets).
func (bs *BreakerSet) State(target int) health.BreakerState {
	if bs == nil {
		return health.BreakerClosed
	}
	if b := bs.breakers[target]; b != nil {
		return b.State()
	}
	return health.BreakerClosed
}

// Opens returns the total number of breaker openings across targets.
func (bs *BreakerSet) Opens() int {
	if bs == nil {
		return 0
	}
	n := 0
	for _, b := range bs.breakers {
		n += b.Opens()
	}
	return n
}

// FastFails returns the total number of fast-failed accesses.
func (bs *BreakerSet) FastFails() int {
	if bs == nil {
		return 0
	}
	n := 0
	for _, b := range bs.breakers {
		n += b.FastFails()
	}
	return n
}
