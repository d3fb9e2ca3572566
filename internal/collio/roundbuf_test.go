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
// strategy, regrows them. The all-hot walk, which sends per rank and
// splits every stripe span per target, is the control: it does outgrow
// them, so the counter counts.
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
	c := pricingCases(t, 0)[1]
	plan, handler := freshPlan(t, c, "two-phase", clean)
	before := collio.RegrownRuns()
	if _, err := c.price(c.ctx, plan, collio.Write, collio.AllHot(collio.FaultEnv{Handler: handler})); err != nil {
		t.Fatal(err)
	}
	if collio.RegrownRuns() == before {
		t.Fatalf("the all-hot walk kept the presized round buffers; the counter counts nothing (%d clean runs)", runs)
	}
}
