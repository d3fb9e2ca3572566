package obs

import (
	"math"
	"strconv"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mpi.msgs_sent", L("rank", "3"))
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Same name+labels resolves to the same instrument, regardless of
	// label order.
	c2 := r.Counter("mpi.msgs_sent", L("rank", "3"))
	if c2 != c {
		t.Fatal("same name+labels returned a different counter")
	}
	multi := r.Counter("x", L("b", "2"), L("a", "1"))
	if r.Counter("x", L("a", "1"), L("b", "2")) != multi {
		t.Fatal("label order changed instrument identity")
	}
}

func TestNilSafety(t *testing.T) {
	// Every instrument and the observer itself tolerate nil: the
	// disabled path of instrumented code.
	var o *Observer
	o.Counter("a").Inc()
	o.Counter("a").Add(5)
	o.Gauge("b").Set(1)
	o.Histogram("c").Observe(2)
	o.Tracer().Emit(Span{})
	var c *Counter
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter has a value")
	}
	var g *Gauge
	g.Set(7)
	if g.Value() != 0 {
		t.Fatal("nil gauge has a value")
	}
	var h *Histogram
	h.Observe(1)
	var tr *Tracer
	tr.Emit(Span{Name: "x"})
	ref := tr.Begin(1, 1, "y", 0)
	ref.Attr("k", "v")
	ref.End(1)
	if tr.Spans() != nil {
		t.Fatal("nil tracer has spans")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("memmodel.avail_bytes", L("node", "0"))
	g.Set(1.5)
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %v, want -3", got)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sim.round_seconds")
	for _, v := range []float64{0.5, 1, 2, 4} {
		h.Observe(v)
	}
	var pt MetricPoint
	for _, p := range r.Snapshot() {
		if p.Name == "sim.round_seconds" {
			pt = p
		}
	}
	if pt.Name == "" {
		t.Fatal("histogram missing from snapshot")
	}
	if pt.Count != 4 || pt.Sum != 7.5 {
		t.Fatalf("count/sum = %d/%v, want 4/7.5", pt.Count, pt.Sum)
	}
	if pt.Min != 0.5 || pt.Max != 4 {
		t.Fatalf("min/max = %v/%v, want 0.5/4", pt.Min, pt.Max)
	}
	if want := 7.5 / 4; math.Abs(pt.Mean-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", pt.Mean, want)
	}
	var total int64
	for _, b := range pt.Bucket {
		total += b.Count
	}
	if total != 4 {
		t.Fatalf("bucket counts sum to %d, want 4", total)
	}
}

func TestHistogramExtremes(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	// Zero, negative, tiny, huge: all must land in some bucket without
	// panicking, and min/max must track the true range.
	for _, v := range []float64{0, -1, 1e-300, 1e300} {
		h.Observe(v)
	}
	if got := h.count.Load(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("b", L("x", "1")).Add(2)
		r.Counter("a").Inc()
		r.Gauge("c", L("n", "0")).Set(4)
		r.Histogram("d").Observe(1)
		r.Counter("b", L("x", "0")).Add(3)
		return r
	}
	s1, s2 := build().Snapshot(), build().Snapshot()
	if len(s1) != 5 || len(s2) != 5 {
		t.Fatalf("snapshot sizes %d/%d, want 5", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].Name != s2[i].Name || labelsOf(s1[i]) != labelsOf(s2[i]) {
			t.Fatalf("snapshot order differs at %d: %v vs %v", i, s1[i], s2[i])
		}
	}
	// Sorted by name then labels.
	for i := 1; i < len(s1); i++ {
		a, b := s1[i-1], s1[i]
		if a.Name > b.Name || (a.Name == b.Name && labelsOf(a) > labelsOf(b)) {
			t.Fatalf("snapshot not sorted: %s{%s} before %s{%s}",
				a.Name, labelsOf(a), b.Name, labelsOf(b))
		}
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// the goroutine-per-rank mpi runtime shape — and checks totals. Run
// under -race this is the data-race proof for the whole metrics path.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Half the workers share instruments, half resolve their own
			// each iteration (exercising the registry lock).
			shared := r.Counter("shared")
			for i := 0; i < iters; i++ {
				shared.Inc()
				r.Counter("per", L("w", strconv.Itoa(w%4))).Inc()
				r.Gauge("g", L("w", strconv.Itoa(w%4))).Set(float64(i))
				r.Histogram("h").Observe(float64(i%7) + 0.5)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*iters {
		t.Fatalf("shared = %d, want %d", got, workers*iters)
	}
	var per int64
	for w := 0; w < 4; w++ {
		per += r.Counter("per", L("w", strconv.Itoa(w))).Value()
	}
	if per != workers*iters {
		t.Fatalf("per total = %d, want %d", per, workers*iters)
	}
	if got := r.Histogram("h").count.Load(); got != workers*iters {
		t.Fatalf("histogram count = %d, want %d", got, workers*iters)
	}
}
