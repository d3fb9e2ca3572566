package core

import (
	"fmt"
	"strconv"

	"mcio/internal/collio"
	"mcio/internal/health"
	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
)

// RungIndependent is the rung number the controller reports for the
// aggregation-free fallback; rung 0 is the unshrunk plan and rungs
// 1..maxShrinks the halving ladder.
const RungIndependent = maxShrinks + 1

// RungTransition records one controller rung change: the Seq-th
// replan moved from rung From (-1 on the first plan) to rung To while
// Suspected nodes were masked out of the availability the ladder saw.
type RungTransition struct {
	Seq       int
	From, To  int
	Suspected int
}

// DegradationController upgrades PlanWithDegradation from the static
// starvation probe to live health state: nodes the suspicion detector
// currently distrusts are masked out of the availability the ladder
// sees — a host that answers at a tenth of its baseline is no better
// a place for an aggregation buffer than a starved one — so the
// ladder's rung choice tracks the machine's actual condition, not
// just its nominal memory. Every rung change across replans is
// recorded as a transition (and a plan.rung_transitions{strategy,to}
// counter) for the run ledger.
type DegradationController struct {
	Strategy *Strategy
	Detector *health.Detector

	planned     bool
	rung        int
	transitions []RungTransition
}

// NewDegradationController builds a controller over s driven by det
// (nil det degrades to the static ladder with transition recording).
func NewDegradationController(s *Strategy, det *health.Detector) *DegradationController {
	return &DegradationController{Strategy: s, Detector: det}
}

// Plan runs the health-masked degradation ladder once. Suspected
// nodes are masked only while at least one node stays trusted — when
// the detector distrusts the whole machine there is no better subset
// to prefer, and planning on zero availability everywhere would turn
// a gray-slow machine into a spuriously independent run.
func (dc *DegradationController) Plan(ctx *collio.Context, rs *collio.RequestSet) (*DegradedPlan, error) {
	eff := *ctx
	masked := 0
	if dc.Detector != nil {
		if sus := dc.Detector.SuspectedIDs("node"); len(sus) > 0 && len(sus) < ctx.Topo.Nodes() {
			avail := append([]int64(nil), ctx.Avail...)
			for _, n := range sus {
				if n < len(avail) {
					avail[n] = 0
					masked++
				}
			}
			eff.Avail = avail
		}
	}
	dp, err := dc.Strategy.PlanWithDegradation(&eff, rs)
	if err != nil {
		return nil, err
	}
	rung := dp.Shrinks
	if dp.Independent {
		rung = RungIndependent
	}
	if !dc.planned || rung != dc.rung {
		from := dc.rung
		if !dc.planned {
			from = -1
		}
		dc.transitions = append(dc.transitions, RungTransition{
			Seq: len(dc.transitions), From: from, To: rung, Suspected: masked,
		})
		// Planning has no simulated clock, so the journal entry is
		// sequence-ordered only.
		ctx.Timeline.J().RecordSeq(timeline.EvRung, "run",
			fmt.Sprintf("rung %d -> %d (%d nodes suspected)", from, rung, masked))
		if ctx.Obs != nil {
			ctx.Obs.Counter("plan.rung_transitions",
				obs.L("strategy", dc.Strategy.Name()),
				obs.L("to", strconv.Itoa(rung))).Inc()
		}
	}
	dc.planned, dc.rung = true, rung
	return dp, nil
}

// Transitions returns every rung change recorded so far, in order.
func (dc *DegradationController) Transitions() []RungTransition {
	if dc == nil {
		return nil
	}
	return dc.transitions
}
