// Package tuner searches for the collective I/O parameters the paper
// determines empirically and defers to future work ("We leave the
// examination of these optimal values to a future study as it is
// correlated with the I/O pattern of a particular application"): the
// per-host aggregator limit N_ah, the saturation message size Msg_ind,
// and the group size Msg_group.
//
// The search evaluates the memory-conscious strategy on the cost model
// over a small grid per workload — cheap, deterministic, and exactly the
// procedure §3 describes performing by hand ("the corresponding
// parameters are measured for optimizing the performance").
package tuner

import (
	"fmt"
	"sort"
	"strings"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/sim"
)

// Candidate is one evaluated parameter combination.
type Candidate struct {
	Params    collio.Params
	Bandwidth float64 // bytes/s on the cost model
	Domains   int
	Paged     int
}

// Result is the outcome of a parameter search.
type Result struct {
	Best        Candidate
	Candidates  []Candidate // all evaluations, best first
	Evaluations int
}

// Grid controls the search space. Zero values select the defaults.
type Grid struct {
	// NahValues are the per-host aggregator limits to try.
	NahValues []int
	// MsgIndFactors multiply the collective buffer size to form Msg_ind
	// candidates.
	MsgIndFactors []int64
	// GroupFactors multiply Msg_ind to form Msg_group candidates.
	GroupFactors []int64
}

func (g Grid) withDefaults() Grid {
	if len(g.NahValues) == 0 {
		g.NahValues = []int{1, 2, 4, 8}
	}
	if len(g.MsgIndFactors) == 0 {
		g.MsgIndFactors = []int64{1, 2, 4, 8, 16}
	}
	if len(g.GroupFactors) == 0 {
		g.GroupFactors = []int64{8}
	}
	return g
}

// Tune evaluates the grid for the given workload and machine state and
// returns the candidates ordered best-first. The context's CollBufSize
// and MemMin are kept; Nah, MsgInd and MsgGroup are searched.
func Tune(ctx *collio.Context, reqs []collio.RankRequest, op collio.Op, opt sim.Options, grid Grid) (*Result, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	grid = grid.withDefaults()
	strategy := core.New()
	rs := collio.NewRequestSet(reqs)
	res := &Result{}
	seen := map[string]bool{}
	for _, nah := range grid.NahValues {
		if nah <= 0 {
			return nil, fmt.Errorf("tuner: non-positive Nah candidate %d", nah)
		}
		for _, mf := range grid.MsgIndFactors {
			for _, gf := range grid.GroupFactors {
				if mf <= 0 || gf <= 0 {
					return nil, fmt.Errorf("tuner: non-positive grid factor")
				}
				params := ctx.Params
				params.Nah = nah
				params.MsgInd = params.CollBufSize * mf
				params.MsgGroup = params.MsgInd * gf
				key := fmt.Sprintf("%d/%d/%d", nah, params.MsgInd, params.MsgGroup)
				if seen[key] {
					continue
				}
				seen[key] = true

				cctx := *ctx
				cctx.Params = params
				copt := opt
				copt.NahOpt = nah
				plan, err := strategy.PlanSet(&cctx, rs)
				if err != nil {
					return nil, err
				}
				cost, err := collio.CostSet(&cctx, plan, rs, op, copt)
				if err != nil {
					return nil, err
				}
				res.Candidates = append(res.Candidates, Candidate{
					Params:    params,
					Bandwidth: cost.Bandwidth,
					Domains:   cost.Domains,
					Paged:     cost.PagedAggregators,
				})
				res.Evaluations++
			}
		}
	}
	if res.Evaluations == 0 {
		return nil, fmt.Errorf("tuner: empty search grid")
	}
	sort.SliceStable(res.Candidates, func(i, j int) bool {
		return res.Candidates[i].Bandwidth > res.Candidates[j].Bandwidth
	})
	res.Best = res.Candidates[0]
	return res, nil
}

// Render formats the top candidates as an aligned table.
func (r *Result) Render(top int) string {
	if top <= 0 || top > len(r.Candidates) {
		top = len(r.Candidates)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "parameter search (%d evaluations)\n", r.Evaluations)
	fmt.Fprintf(&b, "%4s %12s %12s %12s %8s %6s\n", "Nah", "MsgInd", "MsgGroup", "MB/s", "domains", "paged")
	for _, c := range r.Candidates[:top] {
		fmt.Fprintf(&b, "%4d %12d %12d %12.1f %8d %6d\n",
			c.Params.Nah, c.Params.MsgInd, c.Params.MsgGroup,
			c.Bandwidth/1e6, c.Domains, c.Paged)
	}
	return b.String()
}
