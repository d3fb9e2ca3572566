package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"mcio/internal/obs"
)

// Tracks of the traced run. The pass track holds the calls the end-to-end
// pass makes, in its order, under one parent span per cell. The
// diagnostic track re-runs planning's components on the same inputs, so
// planning splits into group division, placement, validation and
// cache-key time; its wall time is excluded from coverage and overhead.
const (
	trackPass = 1
	trackDiag = 2
)

// layerStat accumulates the calls into one layer.
type layerStat struct {
	seconds float64
	allocs  uint64
	calls   int
}

// tracer times calls into the program's layers from outside, on the host
// clock, and records each as a span. A nil *tracer runs every call
// untimed, so the end-to-end pass and the traced pass share one path.
// Layer calls never nest, so a layer's self time is its spans' duration.
type tracer struct {
	spans  *obs.Tracer
	pid    int
	origin time.Time
	layers map[string]*layerStat
	counts map[string]float64
	// passSpans is the time inside layer spans on the pass track;
	// diagSeconds is the wall time spent on the diagnostic track.
	passSpans   float64
	diagSeconds float64
	sample      []metrics.Sample
}

func newTracer(workload string) *tracer {
	t := &tracer{
		spans:  obs.NewTracer(),
		origin: time.Now(),
		layers: map[string]*layerStat{},
		counts: map[string]float64{},
		sample: []metrics.Sample{{Name: heapAllocsMetric}},
	}
	t.pid = t.spans.PID(workload + " (host clock)")
	t.spans.SetThreadName(t.pid, trackPass, "pass")
	t.spans.SetThreadName(t.pid, trackDiag, "diagnostic re-runs")
	return t
}

// heapAllocsMetric is the cumulative heap allocation counter; deltas
// around a call give the bytes it allocated.
const heapAllocsMetric = "/gc/heap/allocs:bytes"

func readHeapAllocs(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (t *tracer) seconds(at time.Time) float64 { return at.Sub(t.origin).Seconds() }

// call runs fn as one call into layer on the given track.
func (t *tracer) call(track int, layer string, fn func() error) error {
	if t == nil {
		return fn()
	}
	a0 := readHeapAllocs(t.sample)
	start := time.Now()
	err := fn()
	dur := time.Since(start).Seconds()
	a1 := readHeapAllocs(t.sample)
	st := t.layers[layer]
	if st == nil {
		st = &layerStat{}
		t.layers[layer] = st
	}
	st.seconds += dur
	st.allocs += a1 - a0
	st.calls++
	if track == trackPass {
		t.passSpans += dur
	}
	t.spans.Emit(obs.Span{PID: t.pid, TID: track, Name: layer, Start: t.seconds(start), Dur: dur})
	return err
}

// diag runs fn, whose calls go on the diagnostic track, only when
// tracing; its wall time is set apart from the pass's. The garbage the
// re-runs leave is collected inside that time, so the pass's later calls
// do not pay for it.
func (t *tracer) diag(fn func() error) error {
	if t == nil {
		return nil
	}
	start := time.Now()
	err := fn()
	runtime.GC()
	t.diagSeconds += time.Since(start).Seconds()
	return err
}

// cell opens the parent span of one cell on the pass track and returns
// the function that closes it.
func (t *tracer) cell(name string) func() {
	if t == nil {
		return func() {}
	}
	ref := t.spans.Begin(t.pid, trackPass, name, t.seconds(time.Now()))
	return func() { ref.End(t.seconds(time.Now())) }
}

// count adds v to a per-layer work counter.
func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}
