package core

import (
	"mcio/internal/collio"
	"mcio/internal/obs"
)

// maxShrinks bounds the degradation ladder: each step halves the
// aggregation appetite once more, so three steps reach an eighth of the
// configured sizes before the planner gives up on aggregation entirely.
const maxShrinks = 3

// DegradedPlan is the outcome of planning under memory starvation. When
// Independent is false, Plan/State hold a placeable aggregation plan and
// Params the (possibly shrunk) tunables it was planned with — Exec and
// the failover handler must use those Params, not the caller's. When
// Independent is true no aggregation was possible at any rung and the
// operation must run as independent I/O (collio.ExecIndependent /
// collio.CostIndependent).
type DegradedPlan struct {
	Plan        *collio.Plan
	State       *RecoveryState
	Params      collio.Params
	Independent bool
	// Shrinks is how many halving steps the ladder took (0 = the normal
	// planner placed the plan unshrunk).
	Shrinks int
}

// PlanWithDegradation is PlanWithStateSet behind the graceful-degradation
// ladder of the tentpole: when no host clears Mem_min (the starvation
// case §3.3 leaves to "the I/O must proceed anyway"), it does not accept
// a paged fallback placement outright — it first shrinks the aggregation
// appetite (Msg_ind, the collective buffer, and Mem_min itself, halved
// per rung) and accepts the first rung that yields an unpaged plan; if
// no rung does, it falls back to independent I/O, which needs no
// aggregation memory at all. With at least one host above Mem_min it is
// exactly PlanWithStateSet.
func (s *Strategy) PlanWithDegradation(ctx *collio.Context, rs *collio.RequestSet) (*DegradedPlan, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if !starved(ctx) {
		plan, state, err := s.PlanWithStateSet(ctx, rs)
		if err != nil {
			return nil, err
		}
		return &DegradedPlan{Plan: plan, State: state, Params: ctx.Params}, nil
	}
	for shrink := 1; shrink <= maxShrinks; shrink++ {
		eff := *ctx
		p := ctx.Params
		p.MsgInd = halveN(p.MsgInd, shrink)
		p.CollBufSize = halveN(p.CollBufSize, shrink)
		p.MemMin = p.MemMin >> shrink
		if p.MsgGroup < p.MsgInd {
			p.MsgGroup = p.MsgInd
		}
		eff.Params = p
		if starved(&eff) {
			continue // still no host clears even the shrunk Mem_min
		}
		plan, state, err := s.PlanWithStateSet(&eff, rs)
		if err != nil {
			continue
		}
		if paged(plan) {
			continue // a rung that still over-commits is no degradation win
		}
		if ctx.Obs != nil {
			ctx.Obs.Counter("plan.degraded", obs.L("strategy", s.Name()), obs.L("mode", "shrunk")).Inc()
			ctx.Obs.Gauge("plan.shrink_steps", obs.L("strategy", s.Name())).Set(float64(shrink))
		}
		return &DegradedPlan{Plan: plan, State: state, Params: p, Shrinks: shrink}, nil
	}
	if ctx.Obs != nil {
		ctx.Obs.Counter("plan.degraded", obs.L("strategy", s.Name()), obs.L("mode", "independent")).Inc()
	}
	return &DegradedPlan{Params: ctx.Params, Independent: true}, nil
}

// starved reports whether no node's available memory clears Mem_min —
// the condition under which aggregator location cannot succeed anywhere.
func starved(ctx *collio.Context) bool {
	for node := 0; node < ctx.Topo.Nodes(); node++ {
		if ctx.Avail[node] >= ctx.Params.MemMin {
			return false
		}
	}
	return true
}

// paged reports whether any domain of the plan over-commits its host.
func paged(p *collio.Plan) bool {
	for _, d := range p.Domains {
		if d.PagedSeverity > 0 {
			return true
		}
	}
	return false
}

// halveN halves v n times, flooring at 1.
func halveN(v int64, n int) int64 {
	v >>= n
	if v < 1 {
		v = 1
	}
	return v
}
