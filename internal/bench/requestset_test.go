package bench

import (
	"reflect"
	"testing"

	"mcio/internal/collio"
)

// A sweep checks and merges its requests once: every cell plans,
// validates and prices one shared request set, so the sweep computes
// one request union, not one per planner and validation.
func TestSweepComputesOneUnion(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(2)
	cfg := Fig6Config(testScale, 5)
	wl, _, err := Fig6Workload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := collio.RequestUnions()
	if _, err := RunSweep(cfg, wl, "collperf"); err != nil {
		t.Fatal(err)
	}
	if n := collio.RequestUnions() - before; n != 1 {
		t.Fatalf("RunSweep computed %d request unions, want 1", n)
	}
	before = collio.RequestUnions()
	if _, err := faultSweepRun(testScale, 5); err != nil {
		t.Fatal(err)
	}
	if n := collio.RequestUnions() - before; n != 1 {
		t.Fatalf("the fault sweep computed %d request unions, want 1", n)
	}
	p := smallExaPoint(t, 600, 100, 16)
	before = collio.RequestUnions()
	if _, err := runFaultGrid(p, collio.Write, exaFaultCells()); err != nil {
		t.Fatal(err)
	}
	if n := collio.RequestUnions() - before; n != 1 {
		t.Fatalf("the exascale fault grid computed %d request unions, want 1", n)
	}
}

// Parallel cells share the sweep's request set, whose union and other
// derived lists are computed lazily by whichever cell reads them first. Under -race this exercises that sharing; the series must equal
// the serial sweep's.
func TestSharedRequestSetSweepParallel(t *testing.T) {
	defer SetParallelism(0)
	cfg := Fig6Config(testScale, 9)
	wl, _, err := Fig6Workload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Series {
		SetParallelism(workers)
		s, err := RunSweep(cfg, wl, "collperf")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := run(1)
	if got := run(2); !reflect.DeepEqual(got, want) {
		t.Fatal("the parallel sweep on a shared request set differs from the serial one")
	}
}
