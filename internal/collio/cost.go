package collio

import (
	"fmt"
	"sort"

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

// CostSet prices plan against the context's machine and storage models
// without moving any data: BuildShapeSet, which refuses a plan that
// does not tile rs, then a clean CostShape. The same plan and requests
// always produce the same result.
func CostSet(ctx *Context, plan *Plan, rs *RequestSet, op Op, opt sim.Options) (*CostResult, error) {
	sh, err := BuildShapeSet(ctx, plan, rs)
	if err != nil {
		return nil, err
	}
	res, err := CostShape(ctx, plan, sh, rs, []Op{op}, opt, FaultEnv{})
	if err != nil {
		return nil, err
	}
	return &res[0].CostResult, nil
}

// CostShape prices plan from sh, its shape over rs, in each direction of
// ops — one, or write and read in either order — under env, and returns
// one result per direction, in order; the zero env is the clean run.
// Neither plan nor sh is changed, so one shape serves both directions
// and every cell of a fault grid, each with its own injector and
// handler. The same inputs always produce the same result; with ctx.Obs
// set the engine also publishes the run's spans and its per-node and
// per-target traffic counters (net.*{node}, pfs.*{ost}), the one
// account of what the simulated machine carried.
//
// Both directions price in one walk: each round is built once, for the
// first, and run on one engine per direction, mirrored for the second
// (sim.Engine.RunAggRoundMirrored), so each result is bit-identical to
// pricing its direction alone. A clean round's two directions differ in
// nothing else; a faulted or adaptive round's do (the injector is asked
// about the sending node), and the observer and timeline record one
// direction. So a walk of both directions needs a clean env, and
// ctx.Obs and ctx.Timeline nil; otherwise CostShape returns an error.
func CostShape(ctx *Context, plan *Plan, sh *Shape, rs *RequestSet, ops []Op, opt sim.Options, env FaultEnv) ([]*FaultResult, error) {
	if err := sh.check(plan); err != nil {
		return nil, err
	}
	if err := checkDirections(ctx, ops, env); err != nil {
		return nil, err
	}
	env.allHot = env.allHot || env.Adaptive != nil
	if env.Injector.Empty() {
		env.Injector, env.Handler, env.Adaptive = nil, nil, nil
	} else if env.Handler == nil {
		return nil, fmt.Errorf("collio: fault injection without a FaultHandler")
	}
	src := &rankSource{rs: rs, topo: &ctx.Topo}
	r, err := newPricingRun(ctx, plan, sh, src, ops, opt, env)
	if err != nil {
		return nil, err
	}
	return r.price()
}

// checkDirections reports why ops cannot be priced in one walk under
// env, or nil: ops must be one direction, or two opposite ones for a
// clean, unobserved run.
func checkDirections(ctx *Context, ops []Op, env FaultEnv) error {
	var conflict string
	switch {
	case len(ops) == 1:
		return nil
	case len(ops) != 2 || ops[0] == ops[1]:
		return fmt.Errorf("collio: directions %v: price one, or write and read", ops)
	case !env.Injector.Empty():
		conflict = "a fault injector"
	case env.Adaptive != nil:
		conflict = "an adaptive policy"
	case env.allHot:
		conflict = "the all-hot walk"
	case ctx.Obs != nil:
		conflict = "an observer"
	case ctx.Timeline != nil:
		conflict = "a timeline"
	default:
		return nil
	}
	return fmt.Errorf("collio: both directions priced in one walk with %s; price each alone", conflict)
}

// NewEngine builds a pricing engine for the context's machine and file
// system under options opt.
func (c *Context) NewEngine(opt sim.Options) (*sim.Engine, error) {
	return sim.NewEngine(c.Machine, c.FS, opt)
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
