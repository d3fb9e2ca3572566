package memmodel

import (
	"math"
	"testing"
	"testing/quick"

	"mcio/internal/machine"
	"mcio/internal/stats"
)

func testMachine(nodes int) *machine.Machine {
	cfg := machine.Testbed640()
	cfg.Nodes = nodes
	return machine.MustNew(cfg)
}

func TestFixedDistribution(t *testing.T) {
	d := Fixed{Bytes: 123}
	r := stats.NewRNG(1)
	for i := 0; i < 10; i++ {
		if d.Sample(r) != 123 {
			t.Fatal("Fixed must always return Bytes")
		}
	}
}

func TestApplyAvailabilityClamps(t *testing.T) {
	m := testMachine(8)
	cap := m.Cfg.MemPerNode
	// A distribution far beyond capacity must clamp down; far below the
	// floor must clamp up.
	ApplyAvailability(m, Fixed{Bytes: cap * 10}, stats.NewRNG(1), 0)
	for _, n := range m.Nodes {
		if n.Avail != cap {
			t.Fatalf("avail %d not clamped to capacity %d", n.Avail, cap)
		}
	}
	ApplyAvailability(m, Fixed{Bytes: -5}, stats.NewRNG(1), 4096)
	for _, n := range m.Nodes {
		if n.Avail != 4096 {
			t.Fatalf("avail %d not clamped to floor", n.Avail)
		}
	}
}

func TestApplyAvailabilityReproducible(t *testing.T) {
	m1, m2 := testMachine(32), testMachine(32)
	d := Normal{Mean: 1 << 30, Sigma: 1 << 28}
	a1 := ApplyAvailability(m1, d, stats.NewRNG(99), 0)
	a2 := ApplyAvailability(m2, d, stats.NewRNG(99), 0)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("node %d: %d != %d under same seed", i, a1[i], a2[i])
		}
	}
}

func TestApplyAvailabilityVariance(t *testing.T) {
	m := testMachine(256)
	d := Normal{Mean: 4 << 30, Sigma: 1 << 30}
	av := ApplyAvailability(m, d, stats.NewRNG(7), 0)
	xs := make([]float64, len(av))
	distinct := map[int64]bool{}
	for i, v := range av {
		xs[i] = float64(v)
		distinct[v] = true
	}
	if len(distinct) < 100 {
		t.Fatalf("normal availability produced only %d distinct values", len(distinct))
	}
	s := stats.Summarize(xs)
	if math.Abs(s.Mean-float64(4<<30)) > float64(1<<28) {
		t.Fatalf("availability mean %g too far from configured mean", s.Mean)
	}
}

func TestTrackerReserveOvercommits(t *testing.T) {
	tr := NewTrackerFromAvail([]int64{100, 50})
	if !tr.Reserve(0, 60) {
		t.Fatal("reservation within availability must fit")
	}
	if tr.Avail(0) != 40 || tr.reserved[0] != 60 || tr.overrun[0] != 0 {
		t.Fatalf("state after reserve: avail=%d reserved=%d overrun=%d",
			tr.Avail(0), tr.reserved[0], tr.overrun[0])
	}
	if tr.Reserve(0, 60) {
		t.Fatal("second reservation must over-commit")
	}
	if tr.overrun[0] != 20 {
		t.Fatalf("overrun = %d, want 20", tr.overrun[0])
	}
	if tr.Avail(0) != 0 {
		t.Fatalf("over-committed avail = %d, want 0", tr.Avail(0))
	}
}

func TestTrackerOverrunCappedByReservation(t *testing.T) {
	tr := NewTrackerFromAvail([]int64{0})
	tr.Reserve(0, 10)
	if tr.overrun[0] != 10 {
		t.Fatalf("overrun = %d, want 10", tr.overrun[0])
	}
}

func TestTrackerPanics(t *testing.T) {
	tr := NewTrackerFromAvail([]int64{10})
	defer func() {
		if recover() == nil {
			t.Fatal("negative reservation did not panic")
		}
	}()
	tr.Reserve(0, -1)
}

// Property: for any sequence of reservations and budget changes,
// avail + reserved - overrun equals the node's current budget (when avail
// is clamped at 0, the overrun accounts for the difference).
func TestTrackerConservation(t *testing.T) {
	r := stats.NewRNG(5)
	err := quick.Check(func(seed uint64, opsRaw uint8) bool {
		rr := stats.NewRNG(seed)
		budget := int64(1000)
		tr := NewTrackerFromAvail([]int64{budget})
		ops := int(opsRaw%20) + 1
		for i := 0; i < ops; i++ {
			if rr.Float64() < 0.7 {
				tr.Reserve(0, rr.Int63n(400))
			} else {
				budget = rr.Int63n(2000)
				tr.SetAvail(0, budget)
			}
			if tr.Avail(0) > 0 && tr.overrun[0] != 0 {
				return false // cannot have headroom and overrun at once
			}
			if tr.Avail(0)+tr.reserved[0]-tr.overrun[0] != budget || tr.Budget(0) != budget {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300, Rand: quickRand(r)})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistributionStrings(t *testing.T) {
	for _, d := range []Distribution{
		Fixed{Bytes: 1}, Normal{Mean: 1, Sigma: 2},
		Uniform{Lo: 0, Hi: 10}, Pareto{Xm: 1, Alpha: 2},
	} {
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}

func TestUniformRange(t *testing.T) {
	d := Uniform{Lo: 10, Hi: 20}
	r := stats.NewRNG(3)
	for i := 0; i < 1000; i++ {
		v := d.Sample(r)
		if v < 10 || v >= 20 {
			t.Fatalf("uniform sample out of range: %v", v)
		}
	}
}

func TestBimodal(t *testing.T) {
	d := Bimodal{PBusy: 0.5, BusyMean: 100, IdleMean: 10000, Sigma: 1}
	r := stats.NewRNG(9)
	var lo, hi int
	for i := 0; i < 2000; i++ {
		v := d.Sample(r)
		switch {
		case v < 1000:
			lo++
		case v > 9000:
			hi++
		default:
			t.Fatalf("bimodal sample %v between modes", v)
		}
	}
	if lo < 800 || hi < 800 {
		t.Fatalf("modes unbalanced: lo=%d hi=%d", lo, hi)
	}
	if d.String() == "" {
		t.Fatal("empty String")
	}
}
