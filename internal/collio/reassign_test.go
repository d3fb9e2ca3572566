package collio_test

import (
	"fmt"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/faults"
	"mcio/internal/sim"
	"mcio/internal/twophase"
)

// fixedHandler answers every host fault with one decision, applied to
// each affected domain, whether or not it names anything that exists.
type fixedHandler struct{ ra collio.Reassignment }

func (h fixedHandler) Name() string { return "fixed" }

func (h fixedHandler) OnHostFault(_ *collio.Context, _ collio.HostFault, _ []collio.Domain, affected []int) ([]collio.Reassignment, error) {
	ras := make([]collio.Reassignment, 0, len(affected))
	for _, d := range affected {
		ra := h.ra
		ra.Domain = d
		ras = append(ras, ra)
	}
	return ras, nil
}

// A reassignment must name a node, an aggregator rank and an absorbing
// domain the run has: one outside them is a handler fault, reported as
// an error rather than priced on a node that does not exist or
// panicking.
func TestReassignmentOutOfRangeRejected(t *testing.T) {
	ctx := faultCtx(t)
	reqs := faultReqs(12, 1<<18)
	plan, err := twophase.New().Plan(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := collio.Cost(ctx, plan, reqs, collio.Write, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	spec := faults.DefaultSpec(7, ref.Seconds*4)
	victim := plan.Domains[0].AggNode
	nodes, size := ctx.Topo.Nodes(), ctx.Topo.Size()
	last := size - 1
	cases := []struct {
		ra    collio.Reassignment
		valid bool
	}{
		{collio.Reassignment{MergeInto: -1, Aggregator: last, AggNode: ctx.Topo.NodeOf(last)}, true},
		{collio.Reassignment{MergeInto: -1, Aggregator: 0, AggNode: -1}, false},
		{collio.Reassignment{MergeInto: -1, Aggregator: 0, AggNode: nodes}, false},
		{collio.Reassignment{MergeInto: -1, Aggregator: -1, AggNode: 0}, false},
		{collio.Reassignment{MergeInto: -1, Aggregator: size, AggNode: 0}, false},
		{collio.Reassignment{MergeInto: len(plan.Domains)}, false},
	}
	for _, c := range cases {
		name := fmt.Sprintf("%+v", c.ra)
		inj := faults.NewInjector(crashPlan(spec, victim, ref.Seconds/2))
		res, err := collio.CostWithFaults(ctx, plan, reqs, collio.Write, sim.DefaultOptions(), inj, fixedHandler{c.ra})
		switch {
		case c.valid && err != nil:
			t.Fatalf("%s: %v", name, err)
		case c.valid && res.Failovers == 0:
			t.Fatalf("%s: the crash re-placed nothing; the handler was never asked", name)
		case !c.valid && err == nil:
			t.Fatalf("%s: accepted and priced", name)
		}
	}
}
