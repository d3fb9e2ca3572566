package bench

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/faults"
)

// A fault grid builds one plan and one shape per strategy, however many
// cells it prices.
func TestFaultGridPlansAndShapesOncePerStrategy(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(2)
	p := smallExaPoint(t, 600, 100, 16)
	plans, shapes := collio.PlanBuilds(), collio.ShapeBuilds()
	points, err := runFaultGrid(p, collio.Write, exaFaultCells())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*len(exaFaultCells()) {
		t.Fatalf("the grid priced %d points, want %d", len(points), 2*len(exaFaultCells()))
	}
	if n := collio.PlanBuilds() - plans; n != 2 {
		t.Fatalf("the grid built %d plans, want one per strategy", n)
	}
	if n := collio.ShapeBuilds() - shapes; n != 2 {
		t.Fatalf("the grid built %d shapes, want one per strategy", n)
	}
}

// gridJob is one priced run of TestForkedGridMatchesFreshPlans.
type gridJob struct {
	kind     string
	strategy int
	op       collio.Op
	spec     faults.Spec
	res      *collio.FaultResult
	err      error
}

// Pricing every run from one shared plan and shape, each recovering on
// its own fork of the recovery state, prices what a fresh plan per run
// prices. Random cells — rate-0 controls, rate sweeps with gray and
// corruption faults, exascale-grid cells and cluster wipes that crash
// every node — run in shuffled order across four workers, writes and
// reads, and each result must equal a fresh plan's, errors included.
// Afterwards the shared plans and shapes must equal freshly built ones:
// no run wrote to what it shares.
func TestForkedGridMatchesFreshPlans(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	points := []*figurePoint{}
	cfg := Fig7Config(testScale, 3)
	wl, name := Fig7Workload(cfg)
	p, err := newPoint(cfg, wl, name, 16)
	if err != nil {
		t.Fatal(err)
	}
	points = append(points, p)
	if !testing.Short() {
		points = append(points, smallExaPoint(t, 600, 100, 16))
	}
	tally := map[string]int{}
	for pi, p := range points {
		forkedGridMatchesFresh(t, p, int64(pi)+7, tally)
	}
	t.Logf("exercised: %v", tally)
	if tally["wipe errors"] == 0 || tally["failovers"] == 0 || tally["stalls"] == 0 || tally["rate-0"] == 0 {
		t.Fatalf("property exercised too little: %v", tally)
	}
}

func forkedGridMatchesFresh(t *testing.T, p *figurePoint, seed int64, tally map[string]int) {
	t.Helper()
	strategies := []string{"two-phase", "memory-conscious"}
	opt := p.cfg.options()
	opt.Trace = true
	nodes := p.ctx.Topo.Nodes()
	plans := make([]*gridPlan, len(strategies))
	refs := make([]float64, len(strategies))
	for si, strategy := range strategies {
		g, err := planGrid(p.ctx, p.rs, strategy)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := g.run(p.ctx, p.rs, collio.Write, opt, faults.DefaultSpec(1, 1).WithRate(0))
		if err != nil {
			t.Fatal(err)
		}
		plans[si], refs[si] = g, ref.Seconds
	}

	rng := rand.New(rand.NewSource(seed))
	var jobs []*gridJob
	for i := 0; i < 16; i++ {
		for si := range strategies {
			horizon := refs[si] * 4
			s := uint64(rng.Int63())
			j := &gridJob{strategy: si, op: collio.Write}
			if rng.Intn(2) == 1 {
				j.op = collio.Read
			}
			switch i % 4 {
			case 0:
				j.kind, j.spec = "rate-0", faults.DefaultSpec(s, horizon).WithRate(0)
			case 1:
				j.kind = "rate"
				j.spec = faults.DefaultSpec(s, horizon).WithRate([]float64{0.5, 1, 2, 4}[rng.Intn(4)])
				if rng.Intn(2) == 1 {
					j.spec = j.spec.WithGray(1).WithCorruption(1)
				}
			case 2:
				j.kind = "exa"
				j.spec = exaFaultSpec(s, horizon, nodes, []float64{2, 8}[rng.Intn(2)],
					[]float64{0, 0.25}[rng.Intn(2)], []float64{0.5, 0.9}[rng.Intn(2)])
			case 3:
				// Every node crashes early in the run.
				j.kind = "wipe"
				j.spec = faults.DefaultSpec(s, horizon).WithRate(0)
				j.spec.NodeCrashMTBF = horizon / 40
			}
			jobs = append(jobs, j)
		}
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	err := ForEach(len(jobs), func(i int) error {
		j := jobs[i]
		j.res, j.err = plans[j.strategy].run(p.ctx, p.rs, j.op, opt, j.spec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for i, j := range jobs {
		strategy := strategies[j.strategy]
		name := fmt.Sprintf("%s job %d (%s %s %s)", p.name, i, j.kind, strategy, j.op)
		plan, inj, handler, err := freshFaultedSetup(p.ctx, p.rs, strategy, j.spec)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := costFresh(p.ctx, plan, p.rs, j.op, opt, collio.FaultEnv{Injector: inj, Handler: handler})
		if j.err != nil || wantErr != nil {
			if fmt.Sprint(j.err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: forked error %v, fresh error %v", name, j.err, wantErr)
			}
			tally[j.kind+" errors"]++
			continue
		}
		if !reflect.DeepEqual(j.res, want) {
			t.Fatalf("%s: forked pricing differs from a fresh plan's\nforked %+v\nfresh  %+v", name, j.res, want)
		}
		if j.kind == "rate-0" {
			if len(j.res.Injected) != 0 {
				t.Fatalf("%s: the control injected %v", name, j.res.Injected)
			}
			tally["rate-0"]++
		}
		tally["failovers"] += j.res.Failovers
		tally["stalls"] += j.res.Stalls
	}

	for si, strategy := range strategies {
		fresh, err := planGrid(p.ctx, p.rs, strategy)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plans[si].plan, fresh.plan) {
			t.Fatalf("%s %s: the shared plan changed while the runs priced it", p.name, strategy)
		}
		if !reflect.DeepEqual(plans[si].shape, fresh.shape) {
			t.Fatalf("%s %s: the shared shape changed while the runs priced it", p.name, strategy)
		}
	}
}
