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

// driftHistory builds n records where entry "mc/write/mem=16" decays
// by perRun (relative) each run while "steady" stays put.
func driftHistory(n int, perRun float64) []RecordFile {
	var recs []RecordFile
	bw := 1000.0
	for i := 0; i < n; i++ {
		r := rec("fig6", int64(i+1)*1000,
			bwEntry("mc/write/mem=16", bw),
			bwEntry("steady", 500))
		recs = append(recs, RecordFile{Path: fmt.Sprintf("run%02d.json", i), Rec: r})
		bw *= 1 - perRun
	}
	return recs
}

// TestDriftFlaggedWherePairwiseDiffPasses is the tentpole acceptance
// property: a 1%-per-run bandwidth decline over 10 runs is invisible to
// the pairwise diff gate at the same 5% tolerance (every adjacent step
// is 1%), yet the trend detector flags it as drift.
func TestDriftFlaggedWherePairwiseDiffPasses(t *testing.T) {
	recs := driftHistory(10, 0.01)

	// Pairwise: every adjacent diff is clean at the default tolerance.
	for i := 1; i < len(recs); i++ {
		res := obs.DiffRunRecords(recs[i-1].Rec, recs[i].Rec, obs.DiffOptions{})
		if n := len(res.Regressions()); n != 0 {
			t.Fatalf("adjacent diff %d->%d flagged %d regressions; the drift must be sub-tolerance pairwise", i-1, i, n)
		}
	}

	// Trend: the decayed entry is flagged as drift, the steady one is ok.
	tr := Trend(recs, Options{})
	byKey := map[string]Verdict{}
	for _, v := range tr.Verdicts {
		byKey[v.Series.Entry+"/"+v.Series.Metric] = v
	}
	drifted := byKey["mc/write/mem=16/bandwidth_mbps"]
	if drifted.Kind != "drift" {
		t.Fatalf("decaying bandwidth verdict = %q, want drift (%s)", drifted.Kind, drifted.Why)
	}
	// ~1%/run decay accumulating to ~9% fitted drop.
	if drifted.SlopePerRun > -0.005 || drifted.TotalRel > -0.05 {
		t.Errorf("drift magnitudes off: slope/run %.4f total %.4f", drifted.SlopePerRun, drifted.TotalRel)
	}
	// The corresponding wall series rises 1%/run — flagged too.
	if v := byKey["mc/write/mem=16/wall_seconds"]; v.Kind != "drift" {
		t.Errorf("rising wall verdict = %q, want drift", v.Kind)
	}
	if v := byKey["steady/bandwidth_mbps"]; v.Kind != "ok" {
		t.Errorf("steady entry verdict = %q, want ok (%s)", v.Kind, v.Why)
	}
	if len(tr.Flagged()) == 0 {
		t.Fatal("trend result reports nothing flagged")
	}
}

func TestImprovementIsNotFlagged(t *testing.T) {
	// Bandwidth *rising* 1%/run is a trend but not a regression; only
	// the wall series (falling — also an improvement) must stay ok too.
	recs := driftHistory(10, -0.01)
	tr := Trend(recs, Options{})
	for _, v := range tr.Verdicts {
		if v.Kind != "ok" {
			t.Errorf("improving series %s/%s flagged %s: %s", v.Series.Entry, v.Series.Metric, v.Kind, v.Why)
		}
	}
}

func TestStepChangeDetected(t *testing.T) {
	var recs []RecordFile
	for i := 0; i < 8; i++ {
		bw := 1000.0
		if i >= 5 {
			bw = 880 // a single 12% level drop at run 5
		}
		recs = append(recs, RecordFile{
			Path: fmt.Sprintf("run%d.json", i),
			Rec:  rec("fig6", int64(i+1), bwEntry("e", bw)),
		})
	}
	tr := Trend(recs, Options{})
	var v Verdict
	for _, c := range tr.Verdicts {
		if c.Series.Metric == "bandwidth_mbps" {
			v = c
		}
	}
	if v.Kind != "step" {
		t.Fatalf("verdict = %q, want step (%s)", v.Kind, v.Why)
	}
	if v.StepAt != 5 {
		t.Errorf("step located at run %d, want 5", v.StepAt)
	}
	if math.Abs(v.StepRel+0.12) > 0.01 {
		t.Errorf("step magnitude %.3f, want about -0.12", v.StepRel)
	}
}

func TestSteadyMetricsFlagBothDirections(t *testing.T) {
	mk := func(vals map[int]float64) []RecordFile {
		var recs []RecordFile
		for i := 0; i < 6; i++ {
			v := 301.0
			if alt, ok := vals[i]; ok {
				v = alt
			}
			r := rec("chaos", int64(i+1), obs.RunEntry{
				Name:    "chaos/detection",
				Metrics: map[string]float64{"detected": v},
			})
			recs = append(recs, RecordFile{Path: fmt.Sprintf("r%d", i), Rec: r})
		}
		return recs
	}
	// Constant counts: ok.
	tr := Trend(mk(nil), Options{})
	if v := tr.Verdicts[0]; v.Kind != "ok" || v.Series.Better != Steady {
		t.Fatalf("constant steady metric: %+v", v)
	}
	// A jump *up* — more detections — is still a behavioural step for a
	// steady metric (the workload or the detector changed).
	tr = Trend(mk(map[int]float64{5: 400}), Options{})
	if v := tr.Verdicts[0]; v.Kind != "step" {
		t.Fatalf("rising steady metric verdict = %q, want step (%s)", v.Kind, v.Why)
	}
	// Moving off zero is a step even though the relative change is
	// undefined.
	var recs []RecordFile
	for i := 0; i < 4; i++ {
		v := 0.0
		if i == 3 {
			v = 7
		}
		recs = append(recs, RecordFile{Path: fmt.Sprintf("r%d", i), Rec: rec("chaos", int64(i+1),
			obs.RunEntry{Name: "chaos/detection", Metrics: map[string]float64{"undetected": v}})})
	}
	tr = Trend(recs, Options{})
	if v := tr.Verdicts[0]; v.Kind != "step" {
		t.Fatalf("off-zero steady metric verdict = %q, want step", v.Kind)
	}
}

func TestShortSeriesAndMissingEntriesAreOk(t *testing.T) {
	// Two runs with a 1% move: below step tolerance, too short for the
	// slope fit — ok. An entry present in only one record: ok.
	recs := []RecordFile{
		{Path: "a", Rec: rec("fig6", 1, bwEntry("e", 1000), bwEntry("once", 10))},
		{Path: "b", Rec: rec("fig6", 2, bwEntry("e", 990))},
	}
	tr := Trend(recs, Options{})
	for _, v := range tr.Verdicts {
		if v.Kind != "ok" {
			t.Errorf("%s/%s flagged %s on a short series", v.Series.Entry, v.Series.Metric, v.Kind)
		}
	}
}

// TestTrendRenderGolden pins the verdict-table rendering — the exact
// bytes `mcio trend` prints for a fixed synthetic history.
func TestTrendRenderGolden(t *testing.T) {
	recs := driftHistory(10, 0.01)
	recs = append(recs, RecordFile{Path: "chaos.json", Rec: rec("chaos", 99999,
		obs.RunEntry{Name: "chaos/detection", Metrics: map[string]float64{"detected": 301, "undetected": 0}})})
	got := Trend(recs, Options{}).Render()
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
	for _, must := range []string{"DRIFT:", "mc/write/mem=16", "no steps or drift", "flagged"} {
		if must == "no steps or drift" {
			if strings.Contains(got, must) {
				t.Errorf("flagged history rendered as clean:\n%s", got)
			}
			continue
		}
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
	for _, v := range Trend(recs, Options{}).Verdicts {
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
		if wall.Flagged() || wall.Series.Better != LowerBetter {
			t.Fatalf("wall verdict %+v, want an unflagged lower-better series", wall)
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
	if v := vs["total_alloc_bytes"]; v.Kind != "step" || v.Series.Better != LowerBetter {
		t.Fatalf("alloc rise verdict = %q (%s), want a lower-better step", v.Kind, v.Why)
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
