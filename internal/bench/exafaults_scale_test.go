//go:build exascale

package bench

import "testing"

// TestFaultedExaEnginesMatch100k runs the bundled-against-walk
// cross-check of the fig-exa-faults grid at 100,000 ranks on 1,000
// nodes and 1,024 targets: all 20 (cell × strategy) runs, at a size
// where the paths only exascale runs take (the injector's ascending-ID
// scans, per-node table growth) are exercised, which the 600-rank grid
// does not reach. The walk takes seconds per run, so the test sits
// behind the exascale build tag:
//
//	go test -tags exascale -run TestFaultedExaEnginesMatch100k ./internal/bench
func TestFaultedExaEnginesMatch100k(t *testing.T) {
	checkExaGridMatchesWalk(t, 100_000, 1_000, 1_024)
}
