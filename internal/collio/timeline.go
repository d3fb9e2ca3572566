package collio

import (
	"fmt"

	"mcio/internal/health"
	"mcio/internal/obs/timeline"
)

// tlBufferGauges samples each aggregator node's staging-buffer
// occupancy and its memory pressure against the node's available
// memory at simulated time t. Called at plan time and again after any
// reassignment changes the placement; domains is the current live set.
func tlBufferGauges(ctx *Context, domains []Domain, t float64) {
	rec := ctx.Timeline
	if rec == nil {
		return
	}
	perNode := map[int]int64{}
	for _, d := range domains {
		if d.Bytes > 0 {
			perNode[d.AggNode] += d.BufferBytes
		}
	}
	for node, buf := range perNode {
		ent := timeline.Ent("node", node)
		rec.AddGauge(ent, "agg_buffer_bytes", t, float64(buf))
		if node < len(ctx.Avail) && ctx.Avail[node] > 0 {
			rec.AddGauge(ent, "mem_used_frac", t, float64(buf)/float64(ctx.Avail[node]))
		}
	}
}

// tlSuspicion samples an entity's suspicion score and journals
// threshold crossings: wasSus is the entity's suspicion before the
// detector observation the caller just made.
func tlSuspicion(rec *timeline.Recorder, d *health.Detector, kind string, id int, wasSus bool, t float64) {
	if rec == nil || d == nil {
		return
	}
	ent := timeline.Ent(kind, id)
	score := d.Score(kind, id)
	if sus := d.Suspected(kind, id); sus != wasSus {
		ev := timeline.EvClear
		if sus {
			ev = timeline.EvSuspect
		}
		rec.J().Record(t, ev, ent, fmt.Sprintf("score %.3g", score))
	}
	rec.AddGauge(ent, "suspicion", t, score)
}

// tlBreakerEvent journals a breaker state change on a storage target.
// Callers snapshot the state before and after the breaker call and
// hand both here; equal states journal nothing.
func tlBreakerEvent(rec *timeline.Recorder, before, after health.BreakerState, target int, t float64) {
	if rec == nil || before == after {
		return
	}
	kind := ""
	switch {
	case after == health.BreakerOpen:
		kind = timeline.EvBreakerOpen
	case before == health.BreakerOpen && after == health.BreakerHalfOpen:
		kind = timeline.EvBreakerProbe
	case after == health.BreakerClosed:
		kind = timeline.EvBreakerClose
	default:
		return
	}
	rec.J().Record(t, kind, timeline.Ent("ost", target),
		fmt.Sprintf("%s -> %s", before, after))
}
