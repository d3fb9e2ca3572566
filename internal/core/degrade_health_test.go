package core

import (
	"testing"

	"mcio/internal/collio"
	"mcio/internal/health"
	"mcio/internal/obs"
)

// Satellite coverage for the degradation-rung observability: each
// availability regime must land on its rung and publish matching
// plan.degraded{mode} counters and the plan.shrink_steps gauge.
func TestPlanWithDegradationRungCounters(t *testing.T) {
	cases := []struct {
		name      string
		availEach int64
		wantRung  int // 1..3 shrunk, RungIndependent for the fallback
	}{
		// MemMin 512 halves per rung: 256, 128, 64. Each availability sits
		// below the previous rung's bar and at or above its own.
		{"rung1", 300, 1},
		{"rung2", 200, 2},
		{"rung3", 100, 3},
		{"independent", 16, RungIndependent},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params := collio.DefaultParams(128)
			params.MemMin = 512
			ctx, reqs := degradeCtx(t, tc.availEach, params)

			dp, err := New().PlanWithDegradation(ctx, collio.NewRequestSet(reqs))
			if err != nil {
				t.Fatal(err)
			}
			shrunk := ctx.Obs.Counter("plan.degraded",
				obs.L("strategy", "memory-conscious"), obs.L("mode", "shrunk")).Value()
			indep := ctx.Obs.Counter("plan.degraded",
				obs.L("strategy", "memory-conscious"), obs.L("mode", "independent")).Value()
			if tc.wantRung == RungIndependent {
				if !dp.Independent {
					t.Fatalf("want independent fallback, got shrinks=%d", dp.Shrinks)
				}
				if shrunk != 0 || indep != 1 {
					t.Fatalf("counters shrunk=%d indep=%d, want 0/1", shrunk, indep)
				}
				return
			}
			if dp.Independent || dp.Shrinks != tc.wantRung {
				t.Fatalf("rung = %d (independent=%v), want %d", dp.Shrinks, dp.Independent, tc.wantRung)
			}
			if shrunk != 1 || indep != 0 {
				t.Fatalf("counters shrunk=%d indep=%d, want 1/0", shrunk, indep)
			}
			if g := ctx.Obs.Gauge("plan.shrink_steps",
				obs.L("strategy", "memory-conscious")).Value(); g != float64(tc.wantRung) {
				t.Fatalf("plan.shrink_steps = %v, want %d", g, tc.wantRung)
			}
		})
	}
}

// The controller masks suspected nodes out of the availability the
// ladder sees and records rung transitions as health changes.
func TestDegradationControllerMasksSuspectsAndRecordsTransitions(t *testing.T) {
	params := collio.DefaultParams(128)
	params.MemMin = 512
	ctx, reqs := degradeCtx(t, 1<<20, params)
	rs := collio.NewRequestSet(reqs)
	// Node 0 alone cannot clear Mem_min unshrunk but clears rung 1's.
	ctx.Avail[0] = 300

	det := health.NewDetector()
	dc := NewDegradationController(New(), det)

	dp, err := dc.Plan(ctx, rs)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Independent || dp.Shrinks != 0 || dc.rung != 0 {
		t.Fatalf("healthy machine degraded: %+v rung=%d", dp, dc.rung)
	}
	if n := len(dc.Transitions()); n != 1 || dc.Transitions()[0].From != -1 || dc.Transitions()[0].To != 0 {
		t.Fatalf("initial plan transitions = %+v, want one -1->0", dc.Transitions())
	}

	// Suspect every node except 0: detector warmup on a healthy signal,
	// then sustained degradation.
	for n := 1; n < ctx.Topo.Nodes(); n++ {
		for i := 0; i < 4; i++ {
			det.Observe("node", n, 1.0)
		}
		for i := 0; i < 12; i++ {
			det.Observe("node", n, 20.0)
		}
		if !det.Suspected("node", n) {
			t.Fatalf("node %d not suspected after sustained degradation", n)
		}
	}

	dp, err = dc.Plan(ctx, rs)
	if err != nil {
		t.Fatal(err)
	}
	// Only node 0 is trusted; its 300 bytes force rung 1.
	if dp.Independent || dp.Shrinks != 1 || dc.rung != 1 {
		t.Fatalf("masked replan rung = %d (independent=%v), want 1", dp.Shrinks, dp.Independent)
	}
	for i, d := range dp.Plan.Domains {
		if d.AggNode != 0 {
			t.Fatalf("domain %d placed on suspected node %d", i, d.AggNode)
		}
	}
	tr := dc.Transitions()
	if len(tr) != 2 || tr[1].From != 0 || tr[1].To != 1 || tr[1].Suspected != ctx.Topo.Nodes()-1 {
		t.Fatalf("transitions = %+v, want second 0->1 with %d suspects", tr, ctx.Topo.Nodes()-1)
	}
	if v := ctx.Obs.Counter("plan.rung_transitions",
		obs.L("strategy", "memory-conscious"), obs.L("to", "1")).Value(); v != 1 {
		t.Fatalf("plan.rung_transitions{to=1} = %d, want 1", v)
	}

	// A replan at the same rung records nothing new.
	if _, err := dc.Plan(ctx, rs); err != nil {
		t.Fatal(err)
	}
	if len(dc.Transitions()) != 2 {
		t.Fatalf("steady-state replan recorded a transition: %+v", dc.Transitions())
	}
}

// When the detector distrusts the whole machine there is no trusted
// subset to prefer: the controller must not mask (planning on zeroed
// availability everywhere would spuriously force independent I/O).
func TestDegradationControllerAllSuspectedNoMask(t *testing.T) {
	params := collio.DefaultParams(128)
	params.MemMin = 512
	ctx, reqs := degradeCtx(t, 1<<20, params)
	rs := collio.NewRequestSet(reqs)

	det := health.NewDetector()
	for n := 0; n < ctx.Topo.Nodes(); n++ {
		for i := 0; i < 4; i++ {
			det.Observe("node", n, 1.0)
		}
		for i := 0; i < 12; i++ {
			det.Observe("node", n, 20.0)
		}
	}
	dc := NewDegradationController(New(), det)
	dp, err := dc.Plan(ctx, rs)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Independent || dp.Shrinks != 0 {
		t.Fatalf("fully suspected machine degraded to rung %d (independent=%v)", dp.Shrinks, dp.Independent)
	}
}
