package faults

import (
	"sync"

	"mcio/internal/stats"
)

// Corrupter replays a Plan's silent-corruption events at the data level
// while collio.Exec really moves bytes. The cost engine's Injector
// prices corruption in simulated time; the Corrupter is its data-path
// twin: the same schedule, applied to real buffers so the integrity
// layer has something to catch.
//
// MsgBitFlip events are scheduled per node; the corrupter assigns them
// round-robin to the ranks hosted on that node, and each rank consumes
// its own pending counter. A rank's send order is deterministic inside
// its goroutine, so which of its messages gets flipped — and which bit —
// is reproducible even though ranks run concurrently.
//
// TornWrite events are per storage target, but concurrent aggregators
// reach the pfs write path in scheduling order, so consuming a shared
// event budget first-come-first-served would make *which* access lands
// torn vary run to run. Instead the scheduled event count sets a tear
// density, and each object access decides its own fate from a hash of
// (seed, target, file offset): a pure function of the access identity,
// so the set of torn accesses is identical across runs no matter how
// goroutines interleave. Each distinct offset tears at most once —
// a repair rewrite of a torn piece always lands whole — and the write
// path commits a tear only when dropping the tail would actually change
// the stored bytes; every committed tear is therefore a detectable
// corruption, which is what lets a campaign prove "detected == injected".
//
// Counters report committed (= injected) corruptions, not scheduled
// events: an event on a node with no ranks, or a density that no written
// access happened to match, never corrupted anything.
type Corrupter struct {
	mu          sync.Mutex
	seed        uint64
	flipPending map[int]int        // rank -> unconsumed bit flips
	tornEvents  map[int]int        // target -> scheduled tear events (density)
	tornSeen    map[int64]bool     // access offsets already torn
	bitRNG      map[int]*stats.RNG // rank -> bit-position stream
	flips       int
	torn        int
}

// NewCorrupter builds a corrupter from the plan's corruption events.
// ranksByNode maps each node index to the ranks it hosts (the collective
// context's placement); flip events on nodes outside the mapping, or on
// nodes hosting no ranks, are dropped. A nil plan yields a corrupter
// that never corrupts.
func NewCorrupter(plan *Plan, ranksByNode [][]int) *Corrupter {
	c := &Corrupter{
		flipPending: map[int]int{},
		tornEvents:  map[int]int{},
		tornSeen:    map[int64]bool{},
		bitRNG:      map[int]*stats.RNG{},
	}
	if plan == nil {
		return c
	}
	c.seed = plan.Spec.Seed
	rr := map[int]int{} // node -> round-robin cursor
	for _, ev := range plan.Events {
		switch ev.Kind {
		case MsgBitFlip:
			if ev.Node < 0 || ev.Node >= len(ranksByNode) || len(ranksByNode[ev.Node]) == 0 {
				continue
			}
			ranks := ranksByNode[ev.Node]
			rank := ranks[rr[ev.Node]%len(ranks)]
			rr[ev.Node]++
			c.flipPending[rank]++
		case TornWrite:
			c.tornEvents[ev.Target]++
		}
	}
	return c
}

// CorruptMsg consumes one pending bit flip on rank, flipping a
// deterministically chosen bit of data in place. It reports whether the
// message was corrupted; empty messages are never flipped (there is no
// bit to flip, so nothing would be injected).
func (c *Corrupter) CorruptMsg(rank int, data []byte) bool {
	if c == nil || len(data) == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.flipPending[rank] == 0 {
		return false
	}
	c.flipPending[rank]--
	if c.flipPending[rank] == 0 {
		delete(c.flipPending, rank)
	}
	r := c.bitRNG[rank]
	if r == nil {
		// A third SplitMix64 increment keeps the bit-position streams
		// disjoint from the schedule-generation streams in streamRNG.
		r = stats.NewRNG(c.seed ^ (uint64(rank)+1)*0x94d049bb133111eb)
		c.bitRNG[rank] = r
	}
	bit := r.Intn(len(data) * 8)
	data[bit/8] ^= 1 << (bit % 8)
	c.flips++
	return true
}

// PendingTorn reports whether target has any tear events scheduled; the
// pfs write path uses it as a cheap gate before comparing bytes.
func (c *Corrupter) PendingTorn(target int) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tornEvents[target] > 0
}

// TearWrite decides whether the object access starting at file offset
// off on target lands torn, and commits the tear. The decision is a
// pure hash of (seed, target, off) with density min(events, 8)/16, so
// it does not depend on the order concurrent writers reach the target;
// each offset tears at most once, so a repair rewrite always lands
// whole. The pfs layer calls it only after establishing that the torn
// tail differs from the stored bytes, so committed implies detectable.
func (c *Corrupter) TearWrite(target int, off int64) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	density := c.tornEvents[target]
	if density == 0 || c.tornSeen[off] {
		return false
	}
	if density > 8 {
		density = 8 // cap at half the accesses: repair must outpace tearing
	}
	if tornHash(c.seed, target, off)%16 >= uint64(density) {
		return false
	}
	c.tornSeen[off] = true
	c.torn++
	return true
}

// tornHash is a SplitMix64 finalizer over the access identity. Distinct
// multipliers keep it disjoint from the schedule and bit-position
// streams derived from the same seed.
func tornHash(seed uint64, target int, off int64) uint64 {
	z := seed ^ (uint64(target)+1)*0x9e3779b97f4a7c15 ^ (uint64(off)+1)*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// InjectedFlips returns how many messages were actually bit-flipped.
func (c *Corrupter) InjectedFlips() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flips
}

// InjectedTorn returns how many object writes were actually torn.
func (c *Corrupter) InjectedTorn() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.torn
}

// Injected returns the total corruptions consumed (flips + torn writes).
func (c *Corrupter) Injected() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flips + c.torn
}
