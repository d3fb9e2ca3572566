package collio

import (
	"mcio/internal/faults"
	"mcio/internal/sim"
)

// CostAllHot prices like CostWithFaults (like Cost with a nil injector)
// with every node and every target hot, so every work item walks its
// contributors per rank and every stripe span is split into one access
// per target: the reference the bundled loop must match bit for bit.
func CostAllHot(ctx *Context, plan *Plan, reqs []RankRequest, op Op, opt sim.Options,
	inj *faults.Injector, handler FaultHandler) (*FaultResult, error) {
	return costFaulted(ctx, plan, reqs, op, opt, faultEnv{inj: inj, handler: handler, allHot: true})
}
