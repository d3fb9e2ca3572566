package history

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcio/internal/obs"
)

// driftHistory builds n records from one host. Entry
// "mc/write/mem=16" keeps its price while the harness's host wall time
// changes by perRun (relative) each run; "steady" and the allocation
// stay put.
func driftHistory(n int, perRun float64) []RecordFile {
	var recs []RecordFile
	wall := 100.0
	for i := 0; i < n; i++ {
		r := rec("fig6", int64(i+1)*1000,
			bwEntry("mc/write/mem=16", 1000),
			bwEntry("steady", 500),
			obs.RunEntry{Name: "fig6" + obs.HarnessSuffix, Metrics: map[string]float64{
				"host_wall_seconds": wall, "total_alloc_bytes": 4e8}})
		r.Host = oneCPU
		recs = append(recs, RecordFile{Path: fmt.Sprintf("run%02d.json", i), Rec: r})
		wall *= 1 + perRun
	}
	return recs
}

// verdictsByKey indexes a trend's verdicts by "entry/metric".
func verdictsByKey(recs []RecordFile) map[string]Verdict {
	out := map[string]Verdict{}
	for _, v := range Trend(recs).Verdicts {
		out[v.Series.Entry+"/"+v.Series.Metric] = v
	}
	return out
}

// TestDriftFlaggedWherePairwiseDiffPasses: host wall time rising 1% per
// run over 10 runs on one host is invisible to the pairwise diff, which
// never gates /harness entries, and to the step detector (every run is
// within 5% of its rolling median), yet the trend flags it as drift.
func TestDriftFlaggedWherePairwiseDiffPasses(t *testing.T) {
	recs := driftHistory(10, 0.01)

	for i := 1; i < len(recs); i++ {
		res := obs.DiffRunRecords(recs[i-1].Rec, recs[i].Rec)
		if n := len(res.Regressions()); n != 0 {
			t.Fatalf("adjacent diff %d->%d flagged %d regressions; host cost must not gate the diff", i-1, i, n)
		}
	}

	byKey := verdictsByKey(recs)
	drifted := byKey["fig6/harness/host_wall_seconds"]
	if drifted.Kind != "drift" {
		t.Fatalf("rising host wall verdict = %q, want drift (%s)", drifted.Kind, drifted.Why)
	}
	// 1%/run accumulating to a fitted rise of about 9%.
	if drifted.SlopePerRun < 0.005 || drifted.TotalRel < 0.05 {
		t.Errorf("drift magnitudes off: slope/run %.4f total %.4f", drifted.SlopePerRun, drifted.TotalRel)
	}
	for key, v := range byKey {
		if key != "fig6/harness/host_wall_seconds" && v.Flagged() {
			t.Errorf("%s flagged %s: %s", key, v.Kind, v.Why)
		}
	}
}

// TestImprovementIsNotFlagged: host cost falling 1% per run is an
// improvement and flags nothing. A price has no better direction: one
// rising 1% per run is flagged as changed at its first move.
func TestImprovementIsNotFlagged(t *testing.T) {
	recs := driftHistory(10, -0.01)
	bw := 1000.0
	for _, rf := range recs {
		rf.Rec.Entries[0] = bwEntry("mc/write/mem=16", bw)
		bw *= 1.01
	}
	for key, v := range verdictsByKey(recs) {
		switch key {
		case "mc/write/mem=16/bandwidth_mbps":
			if v.Kind != "changed" || v.StepAt != 1 || v.Why != "1000 -> 1010 at run 1 (run01.json)" {
				t.Errorf("rising price verdict %q at run %d (%s), want changed at run 1", v.Kind, v.StepAt, v.Why)
			}
		case "mc/write/mem=16/wall_seconds":
			if v.Kind != "changed" || v.StepAt != 1 {
				t.Errorf("falling simulated wall verdict %q at run %d, want changed at run 1", v.Kind, v.StepAt)
			}
		default:
			if v.Flagged() {
				t.Errorf("improving series %s flagged %s: %s", key, v.Kind, v.Why)
			}
		}
	}
}

// TestStepChangeDetected: a single 12% level rise in host wall time at
// run 5 is a step located there; the same move in a price is a change
// at run 5.
func TestStepChangeDetected(t *testing.T) {
	var recs []RecordFile
	for i := 0; i < 8; i++ {
		wall := 100.0
		if i >= 5 {
			wall = 112
		}
		r := rec("fig6", int64(i+1), bwEntry("e", 10*wall),
			obs.RunEntry{Name: "e" + obs.HarnessSuffix, Metrics: map[string]float64{"host_wall_seconds": wall}})
		recs = append(recs, RecordFile{Path: fmt.Sprintf("run%d.json", i), Rec: r})
	}
	byKey := verdictsByKey(recs)
	v := byKey["e/harness/host_wall_seconds"]
	if v.Kind != "step" {
		t.Fatalf("verdict = %q, want step (%s)", v.Kind, v.Why)
	}
	if v.StepAt != 5 {
		t.Errorf("step located at run %d, want 5", v.StepAt)
	}
	if math.Abs(v.StepRel-0.12) > 0.01 {
		t.Errorf("step magnitude %.3f, want about +0.12", v.StepRel)
	}
	if p := byKey["e/bandwidth_mbps"]; p.Kind != "changed" || p.StepAt != 5 || p.Why != "1000 -> 1120 at run 5 (run5.json)" {
		t.Errorf("price verdict %q at run %d (%s), want changed at run 5", p.Kind, p.StepAt, p.Why)
	}
}

// TestSteadyMetricsFlagBothDirections: a metrics-only priced entry (the
// chaos counts) is flagged at any move, up, down or off zero, naming
// the run and both values.
func TestSteadyMetricsFlagBothDirections(t *testing.T) {
	mk := func(key string, vals ...float64) []RecordFile {
		var recs []RecordFile
		for i, v := range vals {
			r := rec("chaos", int64(i+1), obs.RunEntry{
				Name:    "chaos/detection",
				Metrics: map[string]float64{key: v},
			})
			recs = append(recs, RecordFile{Path: fmt.Sprintf("r%d", i), Rec: r})
		}
		return recs
	}
	if v := Trend(mk("detected", 301, 301, 301, 301, 301, 301)).Verdicts[0]; v.Kind != "ok" {
		t.Fatalf("constant count: %+v", v)
	}
	for _, c := range []struct {
		recs []RecordFile
		why  string
	}{
		{mk("detected", 301, 301, 301, 301, 301, 400), "301 -> 400 at run 5 (r5)"},
		{mk("detected", 301, 301, 300, 301), "301 -> 300 at run 2 (r2)"},
		{mk("undetected", 0, 0, 0, 7), "0 -> 7 at run 3 (r3)"},
	} {
		if v := Trend(c.recs).Verdicts[0]; v.Kind != "changed" || v.Why != c.why {
			t.Errorf("verdict %q (%s), want changed (%s)", v.Kind, v.Why, c.why)
		}
	}
}

// TestShortSeriesAndMissingEntriesAreOk: two runs of host wall time 1%
// apart are below the step tolerance and too short for the slope fit;
// an entry present in one record, and a price a record in between does
// not carry, are ok.
func TestShortSeriesAndMissingEntriesAreOk(t *testing.T) {
	host := func(wall float64) obs.RunEntry {
		return obs.RunEntry{Name: "e" + obs.HarnessSuffix, Metrics: map[string]float64{"host_wall_seconds": wall}}
	}
	recs := []RecordFile{
		{Path: "a", Rec: rec("fig6", 1, host(100), bwEntry("e", 1000), bwEntry("once", 10))},
		{Path: "b", Rec: rec("fig6", 2, host(101))},
		{Path: "c", Rec: rec("fig6", 3, bwEntry("e", 1000))},
	}
	for _, v := range Trend(recs).Verdicts {
		if v.Kind != "ok" {
			t.Errorf("%s/%s flagged %s on a short series", v.Series.Entry, v.Series.Metric, v.Kind)
		}
	}
}

// goldenHistory is driftHistory with the priced entry changed from run 6
// on and a chaos record appended: one series of each verdict kind.
func goldenHistory() []RecordFile {
	recs := driftHistory(10, 0.01)
	for _, rf := range recs[6:] {
		rf.Rec.Entries[0] = bwEntry("mc/write/mem=16", 970)
	}
	return append(recs, RecordFile{Path: "chaos.json", Rec: rec("chaos", 99999,
		obs.RunEntry{Name: "chaos/detection", Metrics: map[string]float64{"detected": 301, "undetected": 0}})})
}

// TestTrendRenderGolden pins the verdict-table rendering — the exact
// bytes `mcio trend` prints for a fixed synthetic history.
func TestTrendRenderGolden(t *testing.T) {
	got := Trend(goldenHistory()).Render()
	golden := filepath.Join("testdata", "trend_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if got != string(want) {
		t.Errorf("trend table drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	for _, must := range []string{
		"CHANGED: 1000 -> 970 at run 6 (run06.json)", "DRIFT:", "mc/write/mem=16",
		"3 series flagged (2 changed, 0 step, 1 drift)",
	} {
		if !strings.Contains(got, must) {
			t.Errorf("render missing %q:\n%s", must, got)
		}
	}
}

// harnessRun is one fig-exa/harness record: its host, wall seconds and
// allocated bytes.
type harnessRun struct {
	host        *obs.HostInfo
	wall, alloc float64
}

var (
	oneCPU = &obs.HostInfo{GoVersion: "go1.22", GOMAXPROCS: 1, NumCPU: 1}
	twoCPU = &obs.HostInfo{GoVersion: "go1.22", GOMAXPROCS: 2, NumCPU: 2}
)

// harnessHistory builds one record per run, oldest first.
func harnessHistory(runs ...harnessRun) []RecordFile {
	var recs []RecordFile
	for i, r := range runs {
		rc := rec("fig-exa", int64(i+1), obs.RunEntry{
			Name: "fig-exa/harness",
			Metrics: map[string]float64{
				"host_wall_seconds": r.wall,
				"total_alloc_bytes": r.alloc,
			},
		})
		rc.Host = r.host
		recs = append(recs, RecordFile{Path: fmt.Sprintf("r%d", i), Rec: rc})
	}
	return recs
}

func harnessVerdicts(t *testing.T, recs []RecordFile) map[string]Verdict {
	t.Helper()
	out := map[string]Verdict{}
	for _, v := range Trend(recs).Verdicts {
		out[v.Series.Metric] = v
	}
	return out
}

// TestHarnessOtherHostDoesNotFlag pins the host fingerprint: a record
// from a faster host (half the wall time) flags nothing, and neither
// does a slower host's, whose wall time is never compared against
// another host's history.
func TestHarnessOtherHostDoesNotFlag(t *testing.T) {
	for _, recs := range [][]RecordFile{
		harnessHistory(harnessRun{oneCPU, 49.2, 10.2e9}, harnessRun{twoCPU, 23.7, 10.2e9}),
		harnessHistory(harnessRun{twoCPU, 23.7, 10.2e9}, harnessRun{oneCPU, 49.2, 10.2e9}),
	} {
		vs := harnessVerdicts(t, recs)
		wall := vs["host_wall_seconds"]
		if wall.Flagged() {
			t.Fatalf("wall verdict %+v, want an unflagged series", wall)
		}
		if n := len(wall.Series.Points); n != 1 {
			t.Fatalf("wall series kept %d points across hosts, want 1", n)
		}
		if alloc := vs["total_alloc_bytes"]; alloc.Flagged() || len(alloc.Series.Points) != 2 {
			t.Fatalf("alloc verdict %+v, want an unflagged two-point series", alloc)
		}
	}
}

// TestHarnessAllocRiseFlags: on one host, allocations rising past
// tolerance are a step regression.
func TestHarnessAllocRiseFlags(t *testing.T) {
	vs := harnessVerdicts(t, harnessHistory(
		harnessRun{oneCPU, 49.2, 10.2e9}, harnessRun{oneCPU, 49.0, 10.2e9}, harnessRun{oneCPU, 49.1, 12e9}))
	if v := vs["total_alloc_bytes"]; v.Kind != "step" {
		t.Fatalf("alloc rise verdict = %q (%s), want a step", v.Kind, v.Why)
	}
	if v := vs["host_wall_seconds"]; v.Flagged() {
		t.Fatalf("flat wall time flagged: %s", v.Why)
	}
}

// TestHarnessAllocDropDoesNotFlag: allocating less is an improvement.
func TestHarnessAllocDropDoesNotFlag(t *testing.T) {
	vs := harnessVerdicts(t, harnessHistory(
		harnessRun{oneCPU, 49.2, 10.2e9}, harnessRun{oneCPU, 30.1, 6e9}, harnessRun{oneCPU, 25.3, 2e9}))
	for metric, v := range vs {
		if v.Flagged() {
			t.Fatalf("%s improvement flagged: %s", metric, v.Why)
		}
	}
}
