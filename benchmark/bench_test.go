package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcio/internal/bench"
)

// small shrinks a workload until a pass takes milliseconds while keeping
// its platform, engine and pricing path. Scale does not shrink the round
// count, so the sweeps lose memory points and ranks instead, and a
// workload that prices several seeds per pass keeps two of them.
func small(t *testing.T, w *workload, seed uint64) (*workload, []bench.Config) {
	t.Helper()
	sw := *w
	if w.seeds != nil {
		sw.seeds = func(s uint64) []uint64 { return w.seeds(s)[:2] }
	}
	cfgs := sw.configs(bench.DefaultScale, seed)
	for i := range cfgs {
		c := &cfgs[i]
		switch w.name {
		case "collperf-120":
			c.Scale, c.MemMB = 4096, []int{16}
		case "ior-1080":
			c.Ranks, c.MemMB = 240, []int{8, 64}
		case "exa-ior-1m", "exa-faults-1m":
			c.Ranks = 5_000
		}
	}
	return &sw, cfgs
}

// The traced pass calls every layer itself, through copies of bench's
// unexported context, entry and fault-schedule arithmetic; it must price
// every cell bit for bit as the workload's public entry point does.
func TestTracedPassMatchesEndToEnd(t *testing.T) {
	bench.SetParallelism(1)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w, cfgs := small(t, w, 7)
			want, _, err := w.runPass(cfgs, nil)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := w.gen(cfgs[0])
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("no cells priced")
			}
			if n := brokenCells(want, wl.TotalBytes()); n > 0 {
				t.Errorf("%d of %d cells break a pricing invariant", n, len(want))
			}
			tr := newTracer(w.name)
			got, _, err := w.runPass(cfgs, tr)
			if err != nil {
				t.Fatal(err)
			}
			if n := differingCells(want, got); n > 0 {
				for i := range want {
					if i < len(got) && !sameEntry(want[i], got[i]) {
						t.Logf("want %+v\n got %+v", want[i], got[i])
					}
				}
				t.Fatalf("%d of %d traced cells differ from the end-to-end pass", n, len(want))
			}
			if tr.layers["workload.requests"] == nil || tr.layers["obs.encode"] == nil || tr.passSpans <= 0 {
				t.Errorf("traced pass recorded no layer calls: %v", tr.layers)
			}
		})
	}
}

// A run's result line carries exactly the metrics BENCHMARK.json declares,
// with the declared units, and the declared directions match the code's.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	bench.SetParallelism(1)
	s, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !equalStrings(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", got, want)
	}
	declared := func(defs []metricDef) map[string]metricDef {
		m := map[string]metricDef{}
		for _, d := range defs {
			m[d.name] = d
		}
		return m
	}
	e2e := map[string]metricDef{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = metricDef{m.Name, m.Unit, m.Better}
	}
	layers := map[string]metricDef{}
	for _, m := range s.PerLayer {
		layers[m.Name] = metricDef{m.Name, m.Unit, m.Better}
	}
	if !equalDefs(e2e, declared(endToEnd)) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the code's metrics")
	}
	if !equalDefs(layers, declared(perLayer())) {
		t.Errorf("per_layer in BENCHMARK.json differs from the code's metrics")
	}

	w, cfgs := small(t, findWorkload("faults-120"), 1)
	_, res, err := runEndToEnd(w, cfgs, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, e2e)
	spans := filepath.Join(t.TempDir(), "spans.json")
	h, res, err := runTraced(w, cfgs, spans, "")
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, layers)

	// With the digest recorded, the traced run checks its cells against it
	// and does not price the pass a second time.
	cells := res.Attempted / 2
	_, res, err = runTraced(w, cfgs, spans, h.LedgerSHA256)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, layers)
	if res.Attempted != cells || res.Metrics["prices_match_expected"].Value != 1 {
		t.Errorf("traced run with a matching digest: %d cells attempted, want %d; prices_match_expected %v",
			res.Attempted, cells, res.Metrics["prices_match_expected"].Value)
	}
}

// A schedule the program refuses counts as failed cells, and the run's
// other schedules are still priced; no seed takes its place.
func TestRefusedScheduleCountsAsFailed(t *testing.T) {
	bench.SetParallelism(1)
	w := findWorkload("faults-120")
	// At seed 1 `mcio bench faults` crashes every host at rate 4.
	cfgs := []bench.Config{w.config(bench.DefaultScale, 1), w.config(bench.DefaultScale, 0)}
	entries, failed, err := w.runPass(cfgs, nil)
	if err == nil || failed != w.cells(cfgs[0]) || len(entries) != w.cells(cfgs[1]) {
		t.Errorf("got %d cells, %d failed, error %v; want %d cells, %d failed and an error",
			len(entries), failed, err, w.cells(cfgs[1]), w.cells(cfgs[0]))
	}
}

func checkResult(t *testing.T, res *result, want map[string]metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("run not correct: %d of %d cells failed", res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("run reports %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
	}
	for name, d := range want {
		m, ok := res.Metrics[name]
		if !ok || m.Unit != d.unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %s", name, m, ok, d.unit)
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result does not encode: %v", err)
	}
}

func equalDefs(a, b map[string]metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// spread the benchmark's bounds are checked against.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	shift := func(f float64) ([]float64, [][2]float64) {
		var b []float64
		var pairs [][2]float64
		for _, x := range parent {
			b = append(b, x*f)
			pairs = append(pairs, [2]float64{x, x * f})
		}
		return b, pairs
	}
	for _, c := range []struct {
		factor float64
		want   string
	}{
		{0.8, improved},
		{1.0, noWorse},
		{1.05, noWorse},
		{1.2, regressed},
	} {
		b, pairs := shift(c.factor)
		if got, _ := verdict(parent, b, pairs, true, 0.1); got != c.want {
			t.Errorf("time ×%g: verdict %q, want %q", c.factor, got, c.want)
		}
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	b, pairs := shift(1.2)
	if got, _ := verdict(noisy, b, pairs, true, 0.1); got != unresolved {
		t.Errorf("parent spread wider than the bound: verdict %q, want %q", got, unresolved)
	}
}

// The schedule windows hold every schedule seed once.
func TestScheduleWindows(t *testing.T) {
	seen := map[uint64]bool{}
	for _, win := range scheduleWindows {
		if len(win) != 8 {
			t.Errorf("window %v holds %d seeds, want 8", win, len(win))
		}
		for _, s := range win {
			if seen[s] || s > 82 || s == 1 || s == 13 || s == 72 {
				t.Errorf("seed %d repeated or not a schedule seed", s)
			}
			seen[s] = true
		}
	}
	if len(seen) != 80 {
		t.Errorf("windows hold %d seeds, want 80", len(seen))
	}
}

// compare refuses to pair runs of one seed that priced other seeds.
func TestCompareRejectsOtherSchedules(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, seeds := range [2][]uint64{{0, 2}, {0, 3}} {
		var b bytes.Buffer
		h := &header{Workload: "faults-120", Seed: 1, PricedSeeds: seeds}
		res := &result{Correct: true, Attempted: 20}
		res.set(endToEnd, map[string]float64{"sweep_cpu_s": 1, "setup_s": 1, "alloc_mb": 1})
		if err := printRun(&b, h, res); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dirs[i], "run.out"), b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	err = compareCmd(dirs[:], &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "priced other seeds") {
		t.Errorf("compare of runs over different seeds: %v", err)
	}
}
