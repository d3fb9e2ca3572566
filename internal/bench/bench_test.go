package bench

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/twophase"
)

// testScale divides the byte sizes so package tests run fast.
const testScale = 256

func TestConfigValidate(t *testing.T) {
	good := Fig7Config(testScale, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Ranks = 0 },
		func(c *Config) { c.RanksPerNode = 0 },
		func(c *Config) { c.Targets = 0 },
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.SigmaMB = -1 },
		func(c *Config) { c.MemMB = nil },
		func(c *Config) { c.MemMB = []int{0} },
	}
	for i, mut := range mutations {
		cfg := Fig7Config(testScale, 1)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestScaledClamps(t *testing.T) {
	c := Config{Scale: 1000}
	if c.scaled(500) != 1 {
		t.Fatal("scaled must clamp at 1")
	}
	if c.scaled(2000) != 2 {
		t.Fatal("scaled arithmetic")
	}
}

func TestFig7ShapeMatchesPaper(t *testing.T) {
	s, err := sweep(fig7, testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != len(paperSweepMB())*4 {
		t.Fatalf("points = %d", len(s.Points))
	}
	// Headline: memory-conscious beats two-phase on average for both ops.
	if imp := s.Improvement("write"); imp <= 0.2 {
		t.Errorf("write improvement = %+.1f%%, expected clearly positive", imp*100)
	}
	if imp := s.Improvement("read"); imp <= 0.2 {
		t.Errorf("read improvement = %+.1f%%, expected clearly positive", imp*100)
	}
	// Both strategies degrade as aggregator memory shrinks (paper's
	// overall trend): the 2 MB point is well below the 128 MB point.
	for _, strategy := range []string{"two-phase", "memory-conscious"} {
		lo := s.find(2, strategy, "write").MBps
		hi := s.find(128, strategy, "write").MBps
		if lo >= hi {
			t.Errorf("%s write does not degrade under memory pressure: 2MB=%.0f 128MB=%.0f",
				strategy, lo, hi)
		}
	}
	// Reads stream faster than writes for the same plan.
	for _, p := range s.Points {
		if p.Op != "write" {
			continue
		}
		r := s.find(p.MemMB, p.Strategy, "read")
		if r.MBps < p.MBps {
			t.Errorf("%s at %d MB: read %.0f slower than write %.0f",
				p.Strategy, p.MemMB, r.MBps, p.MBps)
		}
	}
}

func TestFig6Runs(t *testing.T) {
	s, err := sweep(fig6, testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if imp := s.Improvement("write"); imp <= 0 {
		t.Errorf("fig6 write improvement = %+.1f%%, want positive", imp*100)
	}
	if imp := s.Improvement("read"); imp <= 0 {
		t.Errorf("fig6 read improvement = %+.1f%%, want positive", imp*100)
	}
}

func TestFig8Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("1080-rank sweep")
	}
	s, err := sweep(fig8, testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if imp := s.Improvement("write"); imp <= 0 {
		t.Errorf("fig8 write improvement = %+.1f%%, want positive", imp*100)
	}
	// The paper's Figure 8 baseline declines steeply from 128 MB to 2 MB.
	base2 := s.find(2, "two-phase", "write").MBps
	base128 := s.find(128, "two-phase", "write").MBps
	if base128/base2 < 1.5 {
		t.Errorf("fig8 baseline decline = %.2fx, expected > 1.5x", base128/base2)
	}
}

func TestSweepDeterministic(t *testing.T) {
	a, err := sweep(fig7, testScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sweep(fig7, testScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i].MBps != b.Points[i].MBps {
			t.Fatalf("point %d differs across identical runs", i)
		}
	}
}

func TestSeedChangesDraws(t *testing.T) {
	a, err := sweep(fig7, testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sweep(fig7, testScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Points {
		if a.Points[i].MBps != b.Points[i].MBps {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sweeps")
	}
}

func TestRender(t *testing.T) {
	s, err := sweep(fig7, testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	out := Render(s)
	for _, want := range []string{"fig7", "2 MB", "128 MB", "average improvement"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
	det := RenderDetails(s)
	for _, want := range []string{"two-phase", "memory-conscious", "bufCV"} {
		if !strings.Contains(det, want) {
			t.Errorf("RenderDetails missing %q", want)
		}
	}
}

func TestImprovementEmpty(t *testing.T) {
	s := &Series{Config: Config{MemMB: []int{1}}}
	if s.Improvement("write") != 0 {
		t.Fatal("empty series improvement should be 0")
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweeps")
	}
	type ab struct {
		name string
		run  func(int64, uint64) (*Table, error)
	}
	for _, a := range []ab{
		{"grouping", AblationGrouping},
		{"nah", AblationNah},
		{"sigma", AblationSigma},
		{"overlap", AblationOverlap},
		{"aggs-per-node", AblationAggsPerNode},
	} {
		tbl, err := a.run(testScale, 42)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", a.name)
		}
		if out := tbl.Render(); !strings.Contains(out, "ablation") {
			t.Errorf("%s: render missing title", a.name)
		}
	}
}

func TestAblationSigmaTrend(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep")
	}
	// The memory-conscious advantage must grow with availability variance:
	// at sigma 0 the strategies face identical uniform memory; at sigma
	// 100 the baseline's oblivious placement pays heavily.
	tbl, err := AblationSigma(testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	parse := func(s string) float64 {
		var v float64
		if _, err := fmtSscanfPercent(s, &v); err != nil {
			t.Fatalf("bad improvement cell %q", s)
		}
		return v
	}
	first := parse(tbl.Rows[0][3])
	last := parse(tbl.Rows[len(tbl.Rows)-1][3])
	if last <= first {
		t.Errorf("improvement should grow with sigma: %v -> %v", first, last)
	}
}

// fmtSscanfPercent parses "+12.3%" into a float64.
func fmtSscanfPercent(s string, v *float64) (int, error) {
	return fmt.Sscanf(strings.TrimSuffix(s, "%"), "%f", v)
}

func TestMotivation(t *testing.T) {
	tbl, err := Motivation(testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// At the finest granularity, collective I/O must beat independent.
	var indep, mc float64
	fmt.Sscanf(tbl.Rows[0][1], "%f", &indep)
	fmt.Sscanf(tbl.Rows[0][3], "%f", &mc)
	if mc <= indep {
		t.Fatalf("collective (%v) not faster than independent (%v) at fine granularity", mc, indep)
	}
}

func TestScalingSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-size sweep")
	}
	tbl, err := ScalingSweep(testScale, 42, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Weak scaling: aggregate bandwidth grows with process count for both
	// strategies, and memory-conscious wins at every size.
	var prevBase float64
	for i, row := range tbl.Rows {
		var base, mc float64
		fmt.Sscanf(row[2], "%f", &base)
		fmt.Sscanf(row[3], "%f", &mc)
		if mc <= base {
			t.Errorf("row %d: mc %v not faster than base %v", i, mc, base)
		}
		if base < prevBase {
			t.Errorf("row %d: baseline did not scale (%v < %v)", i, base, prevBase)
		}
		prevBase = base
	}
	// Defaulted memory argument.
	if _, err := ScalingSweep(testScale, 42, 0); err != nil {
		t.Fatal(err)
	}
}

func TestTuneWorkload(t *testing.T) {
	cfg := Fig7Config(testScale, 42)
	cfg.MemMB = []int{16}
	wl, _ := Fig7Workload(cfg)
	res, err := TuneWorkload(cfg, wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations == 0 || res.Best.Bandwidth <= 0 {
		t.Fatalf("degenerate tune: %+v", res.Best)
	}
	bad := cfg
	bad.Scale = 0
	if _, err := TuneWorkload(bad, wl); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestStrategyComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("three-strategy sweep")
	}
	tbl, err := StrategyComparison(testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(paperSweepMB()) {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Memory-conscious must win the comparison at the scarce end.
	var base, la, mc float64
	fmt.Sscanf(tbl.Rows[0][1], "%f", &base)
	fmt.Sscanf(tbl.Rows[0][2], "%f", &la)
	fmt.Sscanf(tbl.Rows[0][3], "%f", &mc)
	if mc <= base || mc <= la {
		t.Fatalf("memory-conscious (%v) should beat two-phase (%v) and layout-aware (%v)", mc, base, la)
	}
}

func TestTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("five design points")
	}
	tbl, err := Trajectory(testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Memory-conscious wins at every design point along the trajectory.
	for i, row := range tbl.Rows {
		var base, mc float64
		fmt.Sscanf(row[2], "%f", &base)
		fmt.Sscanf(row[3], "%f", &mc)
		if mc <= base {
			t.Errorf("row %d: mc %v <= base %v", i, mc, base)
		}
	}
}

func TestSeriesJSONExport(t *testing.T) {
	s, err := sweep(fig7, testScale, 42)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"name": "fig7-ior-120"`, `"mem_mb": 2`, `"write_improvement"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s", want)
		}
	}
}

func TestRoundTraceRenders(t *testing.T) {
	out, err := RoundTrace(testScale, 42, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"round trace", "two-phase", "memory-conscious", "round "} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

func TestRandomVsInterleaved(t *testing.T) {
	if testing.Short() {
		t.Skip("two sweeps")
	}
	tbl, err := RandomVsInterleaved(testScale, 42, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for i, row := range tbl.Rows {
		var base, mc float64
		fmt.Sscanf(row[1], "%f", &base)
		fmt.Sscanf(row[2], "%f", &mc)
		if mc <= base {
			t.Errorf("row %d (%s): mc %v <= base %v", i, row[0], mc, base)
		}
	}
	if _, err := RandomVsInterleaved(testScale, 42, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPlansAt(t *testing.T) {
	cfg := Fig7Config(testScale, 42)
	plans, topo, err := PlansAt(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("plans = %d", len(plans))
	}
	if topo.Size() != cfg.Ranks {
		t.Fatalf("topology size = %d", topo.Size())
	}
	for _, p := range plans {
		if len(p.Domains) == 0 {
			t.Fatalf("plan %s has no domains", p.Strategy)
		}
		if out := p.Describe(topo); !strings.Contains(out, "domain 0") {
			t.Fatalf("describe output broken for %s", p.Strategy)
		}
	}
	bad := cfg
	bad.Ranks = 0
	if _, _, err := PlansAt(bad, 8); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// perRankSweep prices every cell of RunSweep(cfg, wl) with every node
// walked per rank — the byte-level reference the bundled loop must
// match bit for bit — and returns the results in RunSweep's point
// order. An Adaptive in the env marks every node hot; with no injector
// it prices a clean run.
func perRankSweep(t *testing.T, cfg Config, wl Workload) []*collio.CostResult {
	t.Helper()
	reqs, err := wl.Requests()
	if err != nil {
		t.Fatal(err)
	}
	opt := cfg.options()
	opt.Trace = true
	plat, err := cfg.platform()
	if err != nil {
		t.Fatal(err)
	}
	rs := collio.NewRequestSet(reqs)
	var out []*collio.CostResult
	for _, memMB := range cfg.MemMB {
		for _, s := range []collio.Strategy{twophase.New(), core.New()} {
			ctx, err := cfg.context(plat, cfg.scaled(int64(memMB)*MB), wl.TotalBytes())
			if err != nil {
				t.Fatal(err)
			}
			plan, err := s.PlanSet(ctx, rs)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := collio.BuildShapeSet(ctx, plan, rs)
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range []collio.Op{collio.Write, collio.Read} {
				res, err := collio.CostShape(ctx, plan, sh, rs, []collio.Op{op}, opt, collio.FaultEnv{Adaptive: &collio.Adaptive{}})
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, &res[0].CostResult)
			}
		}
	}
	return out
}

// matchPerRank fails on any cell where the bundled sweep and the
// per-rank reference disagree — seconds, totals, blame traces,
// everything in the CostResult.
func matchPerRank(t *testing.T, name string, bundled *Series, ref []*collio.CostResult) {
	t.Helper()
	if len(bundled.Points) != len(ref) || len(ref) == 0 {
		t.Fatalf("%s: point counts diverge: bundled %d, per-rank %d", name, len(bundled.Points), len(ref))
	}
	for i, p := range bundled.Points {
		if !reflect.DeepEqual(p.Result, ref[i]) {
			t.Errorf("%s cell %s/%s/mem=%d: bundled and per-rank pricing diverge",
				name, p.Strategy, p.Op, p.MemMB)
		}
	}
}

// TestFigExaEnginesMatchSmall shrinks the fig-exa configuration to a
// size the per-rank walk prices quickly and cross-checks that RunSweep's
// bundled pricing matches it on every cell of the sweep — the exactness
// contract on the exascale experiment's own workload shape.
func TestFigExaEnginesMatchSmall(t *testing.T) {
	cfg := FigExaConfig(testScale, 42)
	cfg.Ranks = 600
	cfg.RanksPerNode = 6
	cfg.Targets = 16
	wl, name := FigExaWorkload(cfg)
	bundled, err := RunSweep(cfg, wl, name)
	if err != nil {
		t.Fatal(err)
	}
	matchPerRank(t, "fig-exa", bundled, perRankSweep(t, cfg, wl))
}

// TestEnginesMatchAllFigures cross-checks bundled against per-rank
// pricing on every cell of every figure sweep: fig6, fig7 and fig8 as
// their sweeps price them must agree bit for bit with the same cells
// walked per rank.
func TestEnginesMatchAllFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("three full figure sweeps, twice each")
	}
	fig6Workload := func(cfg Config) (Workload, string) {
		wl, name, err := Fig6Workload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return wl, name
	}
	figures := []struct {
		name     string
		run      func(int64, uint64) (Config, Workload, string, error)
		config   func(int64, uint64) Config
		workload func(Config) (Workload, string)
	}{
		{"fig6", fig6, Fig6Config, fig6Workload},
		{"fig7", fig7, Fig7Config, Fig7Workload},
		{"fig8", fig8, Fig8Config, Fig8Workload},
	}
	for _, fig := range figures {
		bundled, err := sweep(fig.run, testScale, 42)
		if err != nil {
			t.Fatalf("%s: %v", fig.name, err)
		}
		cfg := fig.config(testScale, 42)
		wl, _ := fig.workload(cfg)
		matchPerRank(t, fig.name, bundled, perRankSweep(t, cfg, wl))
	}
}

// BenchmarkFastPathExa is the headline pricing-at-scale measurement: the
// full fig-exa sweep — one million ranks on ten thousand exascale nodes,
// four memory points, two strategies, write and read — priced from
// per-node bundles. The acceptance bar is well under a minute per sweep;
// a per-rank replay would materialize ~1M messages per round.
func BenchmarkFastPathExa(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sweep(figExa, DefaultScale, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// overlapStrategy plans as two-phase, then appends a copy of the first
// domain, which overlaps the domains before it: a plan that must fail
// Plan.ValidateSet.
type overlapStrategy struct{ *twophase.Strategy }

func (s overlapStrategy) PlanSet(ctx *collio.Context, rs *collio.RequestSet) (*collio.Plan, error) {
	plan, err := s.Strategy.PlanSet(ctx, rs)
	if err != nil {
		return nil, err
	}
	plan.Domains = append(plan.Domains, plan.Domains[0])
	return plan, nil
}

// A sweep validates every plan before pricing it: a strategy whose plan
// fails validation fails the sweep with the validation error.
func TestSweepRejectsInvalidPlan(t *testing.T) {
	cfg := Fig6Config(testScale, 5)
	wl, _, err := Fig6Workload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := runSweep(cfg, wl, "collperf", []collio.Strategy{overlapStrategy{twophase.New()}})
	if err == nil || s != nil {
		t.Fatalf("runSweep with an overlapping plan = %v, %v; want the validation error", s, err)
	}
	if !strings.Contains(err.Error(), "overlaps or is out of order") {
		t.Fatalf("runSweep error %q, want the plan's overlap", err)
	}
}
