package bench

import (
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/twophase"
)

// BenchmarkPriceExa times round pricing alone at exascale: the fig-exa
// workload's 8 MB point (one million ranks on ten thousand nodes, seed
// 42), planned and shaped once per strategy outside the timer, then
// priced from the shape as a sweep does, with per-round traces. Each
// strategy prices write and read alone, and both in one walk ("paired",
// as RunSweep prices a cell). The ns/item-round metric divides the time
// by the plan's item-rounds (the sum of its domains' rounds), so a
// paired figure counts both directions and compares with the sum of the
// two solo ones.
func BenchmarkPriceExa(b *testing.B) {
	cfg := FigExaConfig(DefaultScale, 42)
	wl, name := FigExaWorkload(cfg)
	p, err := newPoint(cfg, wl, name, 8)
	if err != nil {
		b.Fatal(err)
	}
	opt := cfg.options()
	opt.Trace = true
	for _, s := range []collio.Strategy{twophase.New(), core.New()} {
		plan, err := s.PlanSet(p.ctx, p.rs)
		if err != nil {
			b.Fatal(err)
		}
		sh, err := collio.BuildShapeSet(p.ctx, plan, p.rs)
		if err != nil {
			b.Fatal(err)
		}
		itemRounds := 0
		for _, d := range plan.Domains {
			itemRounds += d.Rounds()
		}
		for _, run := range []struct {
			name string
			ops  []collio.Op
		}{
			{"write", []collio.Op{collio.Write}},
			{"read", []collio.Op{collio.Read}},
			{"paired", []collio.Op{collio.Write, collio.Read}},
		} {
			b.Run(s.Name()+"/"+run.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := collio.CostShape(p.ctx, plan, sh, p.rs, run.ops, opt, collio.FaultEnv{}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(itemRounds), "ns/item-round")
			})
		}
	}
}
