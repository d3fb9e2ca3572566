package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Stddev != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{42})
	if s.N != 1 || s.Min != 42 || s.Max != 42 || s.Mean != 42 || s.Median != 42 {
		t.Fatalf("bad single-element summary: %+v", s)
	}
	if s.Stddev != 0 {
		t.Fatalf("single-element stddev = %v, want 0", s.Stddev)
	}
}

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.Mean != 5 {
		t.Errorf("mean = %v, want 5", s.Mean)
	}
	// Sample stddev of this classic set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Stddev-want) > 1e-12 {
		t.Errorf("stddev = %v, want %v", s.Stddev, want)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestSummaryBounds(t *testing.T) {
	r := NewRNG(23)
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		rr := NewRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rr.Normal(0, 10)
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max
	}, &quick.Config{MaxCount: 300, Rand: quickRand(r)})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 50}, {50, 30}, {25, 20}, {75, 40}, {-5, 10}, {110, 50},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	sorted := []float64{0, 10}
	if got := Percentile(sorted, 50); got != 5 {
		t.Fatalf("interpolated percentile = %v, want 5", got)
	}
}

func TestCV(t *testing.T) {
	s := Summary{Mean: 10, Stddev: 2}
	if s.CV() != 0.2 {
		t.Fatalf("CV = %v, want 0.2", s.CV())
	}
	if (Summary{}).CV() != 0 {
		t.Fatal("zero-mean CV should be 0")
	}
}
