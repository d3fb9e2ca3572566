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

// The search grid.
var (
	// nahValues are the per-host aggregator limits to try.
	nahValues = []int{1, 2, 4, 8}
	// msgIndFactors multiply the collective buffer size to form Msg_ind
	// candidates.
	msgIndFactors = []int64{1, 2, 4, 8, 16}
)

// groupFactor multiplies Msg_ind to form Msg_group.
const groupFactor = 8

// Tune evaluates the grid for the given workload and machine state and
// returns the candidates ordered best-first. The context's CollBufSize
// and MemMin are kept; Nah, MsgInd and MsgGroup are searched.
func Tune(ctx *collio.Context, reqs []collio.RankRequest, op collio.Op, opt sim.Options) (*Result, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	strategy := core.New()
	rs := collio.NewRequestSet(reqs)
	res := &Result{}
	for _, nah := range nahValues {
		for _, mf := range msgIndFactors {
			params := ctx.Params
			params.Nah = nah
			params.MsgInd = params.CollBufSize * mf
			params.MsgGroup = params.MsgInd * groupFactor

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
