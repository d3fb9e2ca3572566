package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named, labelled instruments. Lookup methods are safe for
// concurrent use and idempotent: the same (name, labels) always returns
// the same instrument. Lookups build a canonical key and take a lock, so
// hot paths should resolve their instruments once up front and keep the
// pointers; the instruments themselves are lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	keys     map[string]instrumentKey // canonical key -> parsed identity
}

// instrumentKey remembers an instrument's identity for snapshots.
type instrumentKey struct {
	name   string
	labels []Label
	kind   string // "counter", "gauge", "histogram"
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		keys:     map[string]instrumentKey{},
	}
}

// canonicalLabels returns a sorted copy of labels.
func canonicalLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// labelString renders sorted labels as "k=v,k2=v2".
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// key builds the registry key for an instrument.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	return name + "{" + labelString(labels) + "}"
}

// Counter resolves (creating if absent) a monotonically increasing
// counter. Returns nil on a nil registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	ls := canonicalLabels(labels)
	k := key(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[k]
	if c == nil {
		c = &Counter{}
		r.counters[k] = c
		r.keys[k] = instrumentKey{name: name, labels: ls, kind: "counter"}
	}
	return c
}

// Gauge resolves (creating if absent) a last-value gauge. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	ls := canonicalLabels(labels)
	k := key(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[k]
	if g == nil {
		g = &Gauge{}
		r.gauges[k] = g
		r.keys[k] = instrumentKey{name: name, labels: ls, kind: "gauge"}
	}
	return g
}

// Histogram resolves (creating if absent) a histogram with power-of-two
// buckets. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	ls := canonicalLabels(labels)
	k := key(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[k]
	if h == nil {
		h = newHistogram()
		r.hists[k] = h
		r.keys[k] = instrumentKey{name: name, labels: ls, kind: "histogram"}
	}
	return h
}

// Counter is a monotonically increasing sum. The zero value is ready to
// use; a nil *Counter drops every update.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n; nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one; nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current sum; 0 on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-written float64 value. The zero value is ready to use;
// a nil *Gauge drops every update.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value; nil-safe.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value; 0 on nil.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of exponential histogram buckets. Bucket i
// counts observations v with v <= 2^(i+histMinExp); the last bucket is a
// catch-all (+Inf).
const (
	histBuckets = 64
	histMinExp  = -24 // 2^-24 ≈ 60 ns when observing seconds
)

// Histogram accumulates observations into lock-free power-of-two
// buckets, plus count/sum/min/max. A nil *Histogram drops every update.
type Histogram struct {
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	minBits atomic.Uint64 // float64 bits; valid only when count > 0
	maxBits atomic.Uint64
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketFor maps an observation to its bucket index.
func bucketFor(v float64) int {
	if v <= 0 {
		return 0
	}
	exp := math.Ilogb(v)
	// Bucket upper bound 2^e must be >= v: round up for non-powers of two.
	if v > math.Ldexp(1, exp) {
		exp++
	}
	idx := exp - histMinExp
	if idx < 0 {
		idx = 0
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	return idx
}

// Observe records one observation; nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	h.buckets[bucketFor(v)].Add(1)
}

// Quantile estimates the p-quantile of the observations by linear
// interpolation within the power-of-two bucket containing the rank.
// p <= 0 returns the exact minimum and p >= 1 the exact maximum; the
// estimate is clamped to [Min, Max] so interpolation never invents a
// value outside the observed range. Returns 0 with no observations or
// on a nil histogram.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return 0
	}
	count := h.count.Load()
	if count == 0 {
		return 0
	}
	min := math.Float64frombits(h.minBits.Load())
	max := math.Float64frombits(h.maxBits.Load())
	if p <= 0 {
		return min
	}
	if p >= 1 {
		return max
	}
	rank := p * float64(count)
	var cum int64
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if float64(cum)+float64(n) >= rank {
			lo := 0.0
			if i > 0 {
				lo = math.Ldexp(1, i-1+histMinExp)
			}
			hi := math.Ldexp(1, i+histMinExp)
			v := lo + (hi-lo)*(rank-float64(cum))/float64(n)
			return math.Min(math.Max(v, min), max)
		}
		cum += n
	}
	return max
}

// Bucket is one non-empty histogram bucket in a snapshot.
type Bucket struct {
	UpperBound float64 `json:"le"` // observations are <= this bound
	Count      int64   `json:"count"`
}

// MetricPoint is one instrument's state in a snapshot. Field order is the
// JSON/CSV column order and is part of the exporter's stable format.
type MetricPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Type   string            `json:"type"`
	Value  float64           `json:"value,omitempty"` // counter/gauge value
	Count  int64             `json:"count,omitempty"` // histogram only
	Sum    float64           `json:"sum,omitempty"`
	Min    float64           `json:"min,omitempty"`
	Max    float64           `json:"max,omitempty"`
	Mean   float64           `json:"mean,omitempty"`
	P50    float64           `json:"p50,omitempty"` // bucket-interpolated median
	P99    float64           `json:"p99,omitempty"`
	Bucket []Bucket          `json:"buckets,omitempty"`
}

// Snapshot returns every instrument's current state, sorted by name then
// label string — a stable order for export and diffing. Nil-safe.
func (r *Registry) Snapshot() []MetricPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	keys := make([]string, 0, len(r.keys))
	for k := range r.keys {
		keys = append(keys, k)
	}
	idents := make(map[string]instrumentKey, len(r.keys))
	for k, v := range r.keys {
		idents[k] = v
	}
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	sort.Strings(keys)
	out := make([]MetricPoint, 0, len(keys))
	for _, k := range keys {
		id := idents[k]
		p := MetricPoint{Name: id.name, Type: id.kind}
		if len(id.labels) > 0 {
			p.Labels = make(map[string]string, len(id.labels))
			for _, l := range id.labels {
				p.Labels[l.Key] = l.Value
			}
		}
		switch id.kind {
		case "counter":
			p.Value = float64(counters[k].Value())
		case "gauge":
			p.Value = gauges[k].Value()
		case "histogram":
			h := hists[k]
			p.Count = h.count.Load()
			p.Sum = math.Float64frombits(h.sumBits.Load())
			if p.Count > 0 {
				p.Min = math.Float64frombits(h.minBits.Load())
				p.Max = math.Float64frombits(h.maxBits.Load())
				p.Mean = p.Sum / float64(p.Count)
				p.P50 = h.Quantile(0.50)
				p.P99 = h.Quantile(0.99)
			}
			for i := range h.buckets {
				if n := h.buckets[i].Load(); n > 0 {
					p.Bucket = append(p.Bucket, Bucket{
						UpperBound: math.Ldexp(1, i+histMinExp),
						Count:      n,
					})
				}
			}
		}
		out = append(out, p)
	}
	return out
}

// labelsOf reconstructs the sorted label string of a point for CSV.
func labelsOf(p MetricPoint) string {
	if len(p.Labels) == 0 {
		return ""
	}
	ls := make([]Label, 0, len(p.Labels))
	for k, v := range p.Labels {
		ls = append(ls, Label{Key: k, Value: v})
	}
	return labelString(canonicalLabels(ls))
}

// String renders the snapshot compactly for logs and tests.
func (r *Registry) String() string {
	var b strings.Builder
	for _, p := range r.Snapshot() {
		if p.Type == "histogram" {
			fmt.Fprintf(&b, "%s{%s} histogram count=%d sum=%g\n", p.Name, labelsOf(p), p.Count, p.Sum)
			continue
		}
		fmt.Fprintf(&b, "%s{%s} %s %g\n", p.Name, labelsOf(p), p.Type, p.Value)
	}
	return b.String()
}
