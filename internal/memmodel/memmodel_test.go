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

func TestApplyAvailabilityClamps(t *testing.T) {
	m := testMachine(8)
	cap := m.Cfg.MemPerNode
	// Draws far beyond capacity must clamp down; far below the floor
	// must clamp up.
	ApplyAvailability(m, Normal{Mean: float64(cap * 10), Sigma: 1}, stats.NewRNG(1), 0)
	for _, n := range m.Nodes {
		if n.Avail != cap {
			t.Fatalf("avail %d not clamped to capacity %d", n.Avail, cap)
		}
	}
	ApplyAvailability(m, Normal{Mean: -5, Sigma: 1}, stats.NewRNG(1), 4096)
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
