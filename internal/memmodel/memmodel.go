// Package memmodel models per-node memory availability for aggregation
// buffers: the variance the paper identifies as a first-class exascale
// phenomenon ("the available memory per node can vary significantly among
// nodes"), and the accounting of aggregation-buffer reservations against
// that availability.
//
// Section 4 of the paper sets per-process memory buffers as normally
// distributed random variables whose mean equals the baseline's fixed
// aggregator buffer size (σ = 50 in their runs). Availability distributions
// here reproduce that setup with a seeded RNG so experiments are
// reproducible.
package memmodel

import (
	"math"
	"slices"
	"strconv"

	"mcio/internal/machine"
	"mcio/internal/obs"
	"mcio/internal/stats"
)

// Normal draws availability from N(Mean, Sigma²), both in bytes. This is
// the paper's experimental setup (mean = baseline aggregator buffer size).
type Normal struct{ Mean, Sigma float64 }

// Sample returns one availability draw in bytes, which may fall outside
// any sensible range; callers clamp.
func (n Normal) Sample(r *stats.RNG) float64 { return r.Normal(n.Mean, n.Sigma) }

// ApplyAvailability samples dist once per node of m and sets each node's
// Avail to the draw clamped to [floor, node capacity]. It returns the
// resulting availability vector. A floor of 0 is allowed; draws below it
// clamp up to it.
func ApplyAvailability(m *machine.Machine, dist Normal, r *stats.RNG, floor int64) []int64 {
	out := make([]int64, len(m.Nodes))
	for i, n := range m.Nodes {
		v := int64(dist.Sample(r))
		if v < floor {
			v = floor
		}
		if v > n.Capacity {
			v = n.Capacity
		}
		n.Avail = v
		out[i] = v
	}
	return out
}

// Tracker accounts aggregation-buffer reservations against node
// availability. Reservations may exceed availability — real systems page
// rather than fail — but the tracker records the over-commit so the cost
// engine can charge the paging penalty.
type Tracker struct {
	avail    []int64 // remaining un-reserved memory per node
	reserved []int64 // total bytes reserved per node
	overrun  []int64 // bytes reserved beyond initial availability
	o        *obs.Observer
}

// NewTrackerFromAvail builds a tracker directly from an availability
// vector (bytes per node).
func NewTrackerFromAvail(avail []int64) *Tracker {
	t := &Tracker{
		avail:    append([]int64(nil), avail...),
		reserved: make([]int64, len(avail)),
		overrun:  make([]int64, len(avail)),
	}
	return t
}

// Clone returns an independent copy of t, attached to t's observer.
func (t *Tracker) Clone() *Tracker {
	return &Tracker{
		avail:    slices.Clone(t.avail),
		reserved: slices.Clone(t.reserved),
		overrun:  slices.Clone(t.overrun),
		o:        t.o,
	}
}

// SetObserver attaches metrics to the tracker: every reservation that
// over-commits its node increments
// memmodel.overcommit_reservations{node} and adds the shortfall to
// memmodel.overcommit_bytes{node} — the planner-side view of the paging
// the cost engine will later charge. A nil observer detaches.
func (t *Tracker) SetObserver(o *obs.Observer) { t.o = o }

// RecordAvailability publishes one availability vector as
// memmodel.avail_bytes{node} gauges — the per-node samples the paper's
// run-time aggregator selection inspects. Nil-safe in both arguments.
func RecordAvailability(o *obs.Observer, avail []int64) {
	if o == nil {
		return
	}
	for node, v := range avail {
		o.Gauge("memmodel.avail_bytes", obs.L("node", strconv.Itoa(node))).Set(float64(v))
	}
}

// Avail returns the remaining un-reserved memory of a node in bytes.
// Over-committed nodes report 0, never negative.
func (t *Tracker) Avail(node int) int64 {
	if t.avail[node] < 0 {
		return 0
	}
	return t.avail[node]
}

// Reserve books bytes of aggregation buffer on a node. It returns true
// when the reservation fits entirely in the remaining availability; false
// means the node is now over-committed (the reservation still happens, as
// on a real machine, but the caller should expect paged bandwidth).
func (t *Tracker) Reserve(node int, bytes int64) bool {
	if bytes < 0 {
		panic("memmodel: negative reservation")
	}
	fits := t.avail[node] >= bytes
	t.avail[node] -= bytes
	t.reserved[node] += bytes
	if t.avail[node] < 0 {
		over := -t.avail[node]
		if over > bytes {
			over = bytes
		}
		t.overrun[node] += over
		if !fits && t.o != nil {
			l := obs.L("node", strconv.Itoa(node))
			t.o.Counter("memmodel.overcommit_reservations", l).Inc()
			t.o.Counter("memmodel.overcommit_bytes", l).Add(over)
		}
	}
	return fits
}

// SetAvail rewrites a node's total memory budget to bytes mid-run,
// keeping existing reservations booked against the new budget: the
// remaining availability becomes bytes - reserved, and the overrun (the
// reserved bytes the new budget can no longer back — the amount that
// will page) is recomputed. The new budget is published as the node's
// memmodel.avail_bytes gauge when an observer is attached.
func (t *Tracker) SetAvail(node int, bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	t.avail[node] = bytes - t.reserved[node]
	if t.avail[node] >= 0 {
		t.overrun[node] = 0
	} else {
		t.overrun[node] = -t.avail[node]
	}
	if t.o != nil {
		t.o.Gauge("memmodel.avail_bytes", obs.L("node", strconv.Itoa(node))).Set(float64(bytes))
	}
}

// Budget returns a node's current total memory budget — remaining
// availability plus booked reservations, floored at zero. Gradual
// decay (a MemLeak fault) is applied against this: the leak fraction
// scales the budget a leak-free run would have, independent of how
// much of it is currently reserved.
func (t *Tracker) Budget(node int) int64 {
	b := t.avail[node] + t.reserved[node]
	if b < 0 {
		b = 0
	}
	return b
}

// Collapse removes fraction (clamped to [0,1]) of a node's current
// memory budget — the mid-operation availability collapse a co-resident
// application causes — and returns the new budget. Reservations stay
// booked; Severity reports how badly they now over-commit the node.
func (t *Tracker) Collapse(node int, fraction float64) int64 {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	budget := t.avail[node] + t.reserved[node]
	if budget < 0 {
		budget = 0
	}
	budget = int64(math.Round(float64(budget) * (1 - fraction)))
	t.SetAvail(node, budget)
	if t.o != nil {
		l := obs.L("node", strconv.Itoa(node))
		t.o.Counter("memmodel.collapse_events", l).Inc()
	}
	return budget
}

// Severity returns the paged fraction of a node's reservations in
// [0, 1]: 0 when every reserved byte is backed by the budget, 1 when
// none is. This is the PagedSeverity the cost engine charges for, so a
// mid-run SetAvail or Collapse immediately recomputes what the next
// round pays.
func (t *Tracker) Severity(node int) float64 {
	if t.reserved[node] <= 0 {
		return 0
	}
	s := float64(t.overrun[node]) / float64(t.reserved[node])
	if s > 1 {
		s = 1
	}
	return s
}
