package bench

import (
	"fmt"
	"strings"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/sim"
	"mcio/internal/twophase"
)

// RoundTrace prices one sweep point of the Figure 7 workload with
// round-level tracing and renders a compact timeline for both strategies:
// how the communication and I/O phases interleave, round by round. A
// diagnostic view of what the cost engine actually charges.
func RoundTrace(scale int64, seed uint64, memMB int) (string, error) {
	cfg := Fig7Config(scale, seed)
	wl, name := Fig7Workload(cfg)
	p, err := newPoint(cfg, wl, name, memMB)
	if err != nil {
		return "", err
	}
	ctx, rs := p.ctx, p.rs
	opt := p.cfg.options()
	opt.Trace = true

	var b strings.Builder
	fmt.Fprintf(&b, "round trace: %s at %d MB per aggregator\n", name, memMB)
	for _, s := range []collio.Strategy{twophase.New(), core.New()} {
		plan, err := s.PlanSet(ctx, rs)
		if err != nil {
			return "", err
		}
		res, err := collio.CostSet(ctx, plan, rs, collio.Write, opt)
		if err != nil {
			return "", err
		}
		tr := res.Trace
		fmt.Fprintf(&b, "%s: %d rounds, %.4fs total (comm %.4fs, io %.4fs)\n",
			s.Name(), len(tr), res.Seconds, res.Totals.CommTime, res.Totals.IOTime)
		head, elided, tail := elide(len(tr))
		for _, e := range tr[:head] {
			b.WriteString(traceLine(e))
		}
		if elided > 0 {
			fmt.Fprintf(&b, "  ... %d more rounds ...\n", elided)
		}
		for _, e := range tr[len(tr)-tail:] {
			b.WriteString(traceLine(e))
		}
	}
	return b.String(), nil
}

// elide decides how a trace of n rounds is shown: the first head rounds,
// an "... elided ..." marker, and the last tail rounds. Short traces
// (n <= head+tail+1) show every round with no marker: an ellipsis
// standing for zero or one hidden rounds would be longer than the rounds
// themselves. Invariant: head + elided + tail == n, tail == 0 when
// nothing is elided (so the head slice is the whole trace, never
// overlapping the tail slice).
func elide(n int) (head, elided, tail int) {
	const maxHead, maxTail = 3, 2
	if n <= maxHead+maxTail+1 {
		return n, 0, 0
	}
	return maxHead, n - maxHead - maxTail, maxTail
}

// traceLine renders one traced round, including which resource bound it.
func traceLine(e sim.TraceEntry) string {
	return fmt.Sprintf("  round %4d: %8.2fµs comm + %8.2fµs io  (%d msgs, %d ops, %d KB comm, %d KB io)  bound: %s\n",
		e.Round, e.Cost.CommTime*1e6, e.Cost.IOTime*1e6,
		e.Messages, e.IOOps, e.CommBytes>>10, e.IOBytes>>10, e.Binding)
}
