package collio

import (
	"fmt"
	"sort"
	"strconv"

	"mcio/internal/obs"
	"mcio/internal/sim"
	"mcio/internal/stats"
)

// CostResult is the priced outcome of one collective operation.
type CostResult struct {
	Strategy  string
	Op        Op
	UserBytes int64
	Seconds   float64
	// Bandwidth is UserBytes/Seconds in bytes per second — the number the
	// paper's figures plot.
	Bandwidth float64
	Totals    sim.Totals

	// Aggregator-side accounting, the paper's secondary metrics.
	Aggregators      int
	PagedAggregators int
	Domains          int
	Groups           int
	MaxRounds        int
	// BufferSummary summarizes per-domain aggregation buffer sizes (memory
	// consumption per aggregator); its CV is the "variance among
	// processes" the paper's strategy minimizes.
	BufferSummary stats.Summary

	// Trace holds per-round records when sim.Options.Trace was set.
	Trace []sim.TraceEntry
}

// extentListEntryBytes is the wire size of one (offset, length) record in
// the metadata exchange, as in ROMIO's flattened offset/length lists.
const extentListEntryBytes = 16

// costObs carries the rank-level observability wiring of one priced
// operation: per-rank MPI traffic counters (the engine only sees nodes)
// and per-domain shuffle counters, pre-resolved so counting pays one
// atomic add per update. They come from a counting walk over the
// per-rank work that runs only when ctx.Obs is set; pricing never
// depends on it. Nil means disabled.
type costObs struct {
	sentB []*obs.Counter // bytes sent, by world rank
	sentM []*obs.Counter // messages sent, by world rank
	recvB []*obs.Counter // bytes received, by world rank
	recvM []*obs.Counter // messages received, by world rank
	shuf  []*obs.Counter // shuffle bytes, by domain index
}

// newCostObs pre-resolves the instruments for one priced operation.
func newCostObs(ctx *Context, plan *Plan, op Op) *costObs {
	if ctx.Obs == nil {
		return nil
	}
	co := &costObs{}
	base := []obs.Label{obs.L("strategy", plan.Strategy), obs.L("op", op.String())}
	n := ctx.Topo.Size()
	co.sentB = make([]*obs.Counter, n)
	co.sentM = make([]*obs.Counter, n)
	co.recvB = make([]*obs.Counter, n)
	co.recvM = make([]*obs.Counter, n)
	for r := 0; r < n; r++ {
		labels := append(append([]obs.Label(nil), base...), obs.L("rank", strconv.Itoa(r)))
		co.sentB[r] = ctx.Obs.Counter("mpi.bytes_sent", labels...)
		co.sentM[r] = ctx.Obs.Counter("mpi.msgs_sent", labels...)
		co.recvB[r] = ctx.Obs.Counter("mpi.bytes_recv", labels...)
		co.recvM[r] = ctx.Obs.Counter("mpi.msgs_recv", labels...)
	}
	co.shuf = make([]*obs.Counter, len(plan.Domains))
	for i, d := range plan.Domains {
		labels := append(append([]obs.Label(nil), base...),
			obs.L("group", strconv.Itoa(d.Group)),
			obs.L("aggregator", strconv.Itoa(d.Aggregator)))
		co.shuf[i] = ctx.Obs.Counter("collio.shuffle_bytes", labels...)
	}
	return co
}

// transfer accounts one rank-to-rank transfer.
func (co *costObs) transfer(src, dst int, bytes int64) {
	if co == nil {
		return
	}
	co.sentB[src].Add(bytes)
	co.sentM[src].Inc()
	co.recvB[dst].Add(bytes)
	co.recvM[dst].Inc()
}

// meta counts the metadata scatter per rank: every member rank with
// data ships its extent list to each of its group's aggregators, as
// buildMetaExchanges prices it.
func (co *costObs) meta(ctx *Context, plan *Plan, rs *RequestSet) {
	if co == nil {
		return
	}
	for g, aggs := range groupAggregators(plan) {
		if len(aggs) == 0 {
			continue
		}
		for _, r := range plan.GroupRanks[g] {
			bytes, ok := metaBytes(ctx, rs, r)
			if !ok {
				continue
			}
			for _, a := range aggs {
				co.transfer(r, a, bytes)
			}
		}
	}
}

// shuffle counts one round of an item's shuffle per rank: each
// contributor's even share to (write) or from (read) the aggregator.
func (co *costObs) shuffle(it *faultItem, aggregator int, op Op) {
	if co == nil {
		return
	}
	for _, c := range it.rankContribs() {
		per := evenShare(c.Bytes, it.Done, it.Rounds)
		if per == 0 {
			continue
		}
		if op == Read {
			co.transfer(aggregator, c.Rank, per)
		} else {
			co.transfer(c.Rank, aggregator, per)
		}
		co.shuf[it.Domain].Add(per)
	}
}

// Cost is CostSet over a set built from reqs.
func Cost(ctx *Context, plan *Plan, reqs []RankRequest, op Op, opt sim.Options) (*CostResult, error) {
	return CostSet(ctx, plan, NewRequestSet(reqs), op, opt)
}

// CostSet prices plan against the context's machine and storage models
// without moving any data. The same plan and requests always produce the
// same result. With ctx.Obs set it also counts per-rank MPI traffic and
// per-domain shuffle bytes.
func CostSet(ctx *Context, plan *Plan, rs *RequestSet, op Op, opt sim.Options) (*CostResult, error) {
	res, err := costSet(ctx, plan, rs, op, opt, faultEnv{})
	if err != nil {
		return nil, err
	}
	return &res.CostResult, nil
}

// CostShape prices one direction of plan from its prebuilt round
// structure, bit-identical to Cost: build the shape once and price write
// and read from it. sh must have been built from plan. A shape carries
// no ranks, so the per-rank counters Cost emits under ctx.Obs are not
// emitted; engine-level metrics, spans and traces are.
func CostShape(ctx *Context, plan *Plan, sh *Shape, op Op, opt sim.Options) (*CostResult, error) {
	if err := sh.check(plan); err != nil {
		return nil, err
	}
	r, err := newPricingRun(ctx, plan, sh, nil, op, opt, faultEnv{}, nil)
	if err != nil {
		return nil, err
	}
	res, err := r.price()
	if err != nil {
		return nil, err
	}
	return &res.CostResult, nil
}

// NewEngine builds a pricing engine for the context's machine and file
// system under options opt.
func (c *Context) NewEngine(opt sim.Options) (*sim.Engine, error) {
	return sim.NewEngine(c.Machine, sim.StorageParams{
		Targets:         c.FS.Targets,
		TargetBW:        c.FS.TargetBW,
		ReqOverhead:     c.FS.ReqOverhead,
		NoncontigFactor: c.FS.NoncontigFactor,
		ReadBWFactor:    c.FS.ReadBWFactor,
	}, opt)
}

// String renders the result in one line for experiment logs.
func (r *CostResult) String() string {
	return fmt.Sprintf("%s %s: %.2f MB/s (%.4fs, %d groups, %d domains, %d aggs, %d paged, %d rounds)",
		r.Strategy, r.Op, r.Bandwidth/1e6, r.Seconds, r.Groups, r.Domains,
		r.Aggregators, r.PagedAggregators, r.MaxRounds)
}

// dedupInts sorts xs in place and compacts out duplicates — O(n log n),
// no allocation. The returned slice aliases xs. Callers only feed the
// result into order-independent accumulations (per-node byte sums,
// commutative counters), so the ordering is free to change.
func dedupInts(xs []int) []int {
	if len(xs) < 2 {
		return xs
	}
	sort.Ints(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
