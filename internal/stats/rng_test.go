package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d vs %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	var zeroes int
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeroes++
		}
	}
	if zeroes > 1 {
		t.Fatalf("zero seed produced a degenerate stream (%d zeroes)", zeroes)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(9)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) did not cover all values: %v", seen)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	mean, sd := 100.0, 15.0
	var sum, ss float64
	for i := 0; i < n; i++ {
		x := r.Normal(mean, sd)
		sum += x
	}
	m := sum / n
	r2 := NewRNG(11)
	for i := 0; i < n; i++ {
		d := r2.Normal(mean, sd) - m
		ss += d * d
	}
	s := math.Sqrt(ss / (n - 1))
	if math.Abs(m-mean) > 0.5 {
		t.Errorf("normal mean = %v, want ~%v", m, mean)
	}
	if math.Abs(s-sd) > 0.5 {
		t.Errorf("normal stddev = %v, want ~%v", s, sd)
	}
}

func TestExponentialPositive(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Exponential(0.5)
		if v < 0 {
			t.Fatalf("Exponential negative: %v", v)
		}
		sum += v
	}
	if m := sum / n; math.Abs(m-2.0) > 0.1 {
		t.Errorf("Exponential(0.5) mean = %v, want ~2", m)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(13)
	err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 200, Rand: quickRand(r)})
	if err != nil {
		t.Fatal(err)
	}
}
