// Package stats provides the deterministic random-number generation,
// probability distributions, and summary statistics used throughout the
// memory-conscious collective I/O simulator.
//
// Every stochastic element of an experiment (per-node available memory,
// random IOR offsets, workload jitter) draws from a seeded generator from
// this package so that a given experiment configuration always reproduces
// identical results.
package stats

import "math"

// RNG is a small, fast, seedable pseudo-random number generator
// (xoshiro256** seeded via SplitMix64). It is deliberately independent of
// math/rand so that the stream is stable across Go releases; experiment
// reproducibility depends on it.
//
// RNG is not safe for concurrent use; give each goroutine its own stream
// via Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Two generators built from
// the same seed produce identical streams forever.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 expansion of the seed into 256 bits of state. SplitMix64
	// guarantees the state is never all-zero for any seed.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent child generator. The child's stream is a
// pure function of the parent's current state, so calling Split in a fixed
// order remains reproducible.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xd2b74407b1ce6e93)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniformly distributed int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Box–Muller transform.
func (r *RNG) Normal(mean, stddev float64) float64 {
	// Box–Muller; discard the second variate for stream simplicity.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Pareto returns a Pareto-distributed value with scale xm > 0 and shape
// alpha > 0. Heavy-tailed; used for adversarial memory-variance scenarios.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Exponential returns an exponentially distributed value with the given
// rate lambda > 0.
func (r *RNG) Exponential(lambda float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / lambda
}

// Perm returns a random permutation of [0, n), Fisher–Yates shuffled.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using the supplied swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
