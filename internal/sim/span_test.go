package sim

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mcio/internal/obs"
)

// spanRounds draws rounds of storage spans: random first target and
// length, issuing node, size, request count, contiguity, direction,
// injected delay and breaker fast-fail, with a few zero accesses.
func spanRounds(rng *rand.Rand, targets, nodes, rounds int) []AggRound {
	out := make([]AggRound, rounds)
	for i := range out {
		for j, n := 0, 1+rng.Intn(8); j < n; j++ {
			t := rng.Intn(targets)
			op := IOOp{
				Target:     t,
				Count:      1 + rng.Intn(targets-t),
				Node:       rng.Intn(nodes),
				Bytes:      int64(rng.Intn(4 << 20)),
				Requests:   rng.Intn(4),
				Contiguous: rng.Intn(2) == 0,
				Write:      rng.Intn(3) != 0,
				Degraded:   rng.Intn(5) == 0,
			}
			if rng.Intn(4) == 0 {
				op.DelaySeconds = rng.Float64() * 1e-3
			}
			if rng.Intn(10) == 0 {
				op.Bytes, op.Requests = 0, 0
			}
			out[i].IOOps = append(out[i].IOOps, op)
		}
		out[i].Messages = []AggMessage{{SrcNode: rng.Intn(nodes), DstNode: rng.Intn(nodes), Bytes: 1 << 20, Count: 2}}
	}
	return out
}

// expanded is r with every span replaced by its single-target
// accesses, in ascending target order where the span stood.
func expanded(r AggRound) AggRound {
	out := r
	out.IOOps = nil
	for _, op := range r.IOOps {
		for k := 0; k < max(op.Count, 1); k++ {
			one := op
			one.Target, one.Count = op.Target+k, 1
			out.IOOps = append(out.IOOps, one)
		}
	}
	return out
}

// A stripe span prices bit-identically to its accesses fed one by one:
// the same round costs, trace entries (IOOps counts the constituent
// accesses), bindings, totals and observer metrics, pfs.* per-target
// counters included — under paging, straggling issuers and gray
// target slowdowns, with and without overlapped phases.
func TestSpanPricesAsItsAccesses(t *testing.T) {
	const nodes = 6
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		rounds := spanRounds(rng, 8, nodes, 5)
		run := func(feed func(AggRound) AggRound) ([]RoundCost, []TraceEntry, Totals, []obs.MetricPoint) {
			e := denseEngine(t, nodes)
			e.opt.Overlap = trial%2 == 1
			o := obs.New()
			e.SetObserver(o, 1, obs.L("strategy", "span"))
			e.SetAggregators([]AggregatorPlacement{
				{Node: 1, BufferBytes: 1 << 20, PagedSeverity: 0.4},
				{Node: 2, BufferBytes: 1 << 20},
			})
			e.SetNodeSlowdown(2, 1.75)
			e.SetNodePaged(4, 0.2)
			e.SetTargetSlowdown(3, 2.5)
			e.SetTargetSlowdown(6, 1.25)
			var costs []RoundCost
			for _, r := range rounds {
				costs = append(costs, e.RunAggRound(feed(r)))
			}
			return costs, e.Trace(), e.Totals(), o.Metrics.Snapshot()
		}
		costs, trace, totals, metrics := run(func(r AggRound) AggRound { return r })
		wantCosts, wantTrace, wantTotals, wantMetrics := run(expanded)
		if !reflect.DeepEqual(costs, wantCosts) || !reflect.DeepEqual(trace, wantTrace) ||
			!reflect.DeepEqual(totals, wantTotals) {
			t.Fatalf("trial %d: spans price differently from their accesses\nspans:    %+v\n%+v\naccesses: %+v\n%+v",
				trial, costs, trace, wantCosts, wantTrace)
		}
		if !reflect.DeepEqual(metrics, wantMetrics) {
			t.Fatalf("trial %d: observer metrics differ\nspans:    %v\naccesses: %v", trial, metrics, wantMetrics)
		}
		ops, pfsCounters := 0, 0
		for _, r := range rounds {
			ops += len(expanded(r).IOOps)
		}
		for _, tr := range trace {
			ops -= tr.IOOps
		}
		for _, p := range metrics {
			if strings.HasPrefix(p.Name, "pfs.") {
				pfsCounters++
			}
		}
		if ops != 0 || pfsCounters == 0 {
			t.Fatalf("trial %d: trace IOOps off by %d from the constituent accesses, %d pfs.* counters", trial, ops, pfsCounters)
		}
	}
}
