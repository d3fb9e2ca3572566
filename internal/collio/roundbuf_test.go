package collio_test

import (
	"fmt"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/faults"
)

// TestRoundBuffersSizedOnce checks that a clean run's round buffers
// keep the size the pricing loop gives them before the first round:
// no clean run over the pricing cases, written or read, by either
// strategy, regrows them. The all-hot walk, which splits every stripe
// span per target, is the control: over the finely striped case it does
// outgrow them, so the counter counts.
func TestRoundBuffersSizedOnce(t *testing.T) {
	clean := faults.DefaultSpec(1, 1).WithRate(0)
	runs := 0
	for ci, c := range pricingCases(t, 24) {
		for _, strategy := range []string{"two-phase", "memory-conscious"} {
			for _, op := range []collio.Op{collio.Write, collio.Read} {
				name := fmt.Sprintf("case %d %s %s", ci, strategy, op)
				plan, _ := freshPlan(t, c, strategy, clean)
				before := collio.RegrownRuns()
				if _, err := collio.CostSet(c.ctx, plan, c.rs, op, c.opt); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if n := collio.RegrownRuns() - before; n != 0 {
					t.Fatalf("%s: a clean run regrew its round buffers", name)
				}
				runs++
			}
		}
	}
	c := pricingCases(t, 0)[2]
	plan, handler := freshPlan(t, c, "two-phase", clean)
	before := collio.RegrownRuns()
	if _, err := c.price(c.ctx, plan, collio.Write, collio.AllHot(collio.FaultEnv{Handler: handler})); err != nil {
		t.Fatal(err)
	}
	if collio.RegrownRuns() == before {
		t.Fatalf("the all-hot walk kept the presized round buffers; the counter counts nothing (%d clean runs)", runs)
	}
}

// TestHotRunsSizedOnce checks that a faulted run with message-hot nodes
// and no resends keeps its presized round buffers: a node with a message
// delay scheduled sends one message per rank while the delay lasts, and
// the buffer has room for each from the start. Half the nodes are
// delayed from the start and the others from halfway through the clean
// run; delays alone resend nothing (no drop, flip or hedge). Every
// pricing case, written and read, by either strategy.
func TestHotRunsSizedOnce(t *testing.T) {
	clean := faults.DefaultSpec(1, 1).WithRate(0)
	for ci, c := range pricingCases(t, 24) {
		for _, strategy := range []string{"two-phase", "memory-conscious"} {
			for _, op := range []collio.Op{collio.Write, collio.Read} {
				name := fmt.Sprintf("case %d %s %s", ci, strategy, op)
				plan, _ := freshPlan(t, c, strategy, clean)
				ref, err := collio.CostSet(c.ctx, plan, c.rs, op, c.opt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sched := &faults.Plan{Spec: clean}
				for n := range c.ctx.Topo.Nodes() {
					sched.Events = append(sched.Events, faults.Event{Kind: faults.MsgDelay,
						Time: float64(n%2) * ref.Seconds / 2, Node: n, Duration: 2 * ref.Seconds, Severity: 1e-6})
				}
				plan, handler := freshPlan(t, c, strategy, clean)
				before := collio.RegrownRuns()
				res, err := c.price(c.ctx, plan, op, collio.FaultEnv{Injector: faults.NewInjector(sched), Handler: handler})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.DelayedMessages == 0 {
					t.Fatalf("%s: no message was delayed", name)
				}
				if n := collio.RegrownRuns() - before; n != 0 {
					t.Fatalf("%s: a run with hot nodes regrew its round buffers", name)
				}
			}
		}
	}
}
