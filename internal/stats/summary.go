package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics over a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Stddev float64 // sample standard deviation (n-1 denominator)
	Median float64
}

// Summarize computes descriptive statistics over xs. It returns the zero
// Summary for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = Percentile(sorted, 50)
	return s
}

// CV returns the coefficient of variation (stddev/mean), or 0 when the mean
// is zero. The paper uses aggregator memory-consumption variance as a
// first-class metric; CV is the scale-free form of it.
func (s Summary) CV() float64 {
	if s.Mean == 0 {
		return 0
	}
	return s.Stddev / s.Mean
}

// String renders the summary in one line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3g mean=%.3g median=%.3g max=%.3g sd=%.3g",
		s.N, s.Min, s.Mean, s.Median, s.Max, s.Stddev)
}

// Percentile returns the p-th percentile (0..100) of an ascending-sorted
// sample using linear interpolation between closest ranks. It panics if the
// sample is empty or unsorted inputs are the caller's responsibility.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: Percentile of empty sample")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
