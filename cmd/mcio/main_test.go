package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mcio/internal/bench"
	"mcio/internal/collio"
	"mcio/internal/obs"
	"mcio/internal/obs/analyze"
)

// testScale divides the byte sizes so CLI-level runs are fast.
const testScale = 256

func TestRunBenchAndDiffCleanExit(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	for _, p := range []string{oldPath, newPath} {
		var out bytes.Buffer
		err := runBench([]string{"fig7", "-scale", strconv.Itoa(testScale), "-seed", "1", "-out", p}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "wrote ledger") {
			t.Fatalf("bench output missing confirmation: %s", out.String())
		}
	}
	var out bytes.Buffer
	code, err := runDiff([]string{oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("identical ledgers exit %d, want 0:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "no regressions") {
		t.Errorf("diff output missing verdict:\n%s", out.String())
	}
}

func TestRunDiffFlagsInjectedRegression(t *testing.T) {
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "old.json")
	newPath := filepath.Join(dir, "new.json")
	rec, err := bench.Ledger("fig7", testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.SaveRunRecord(oldPath, rec); err != nil {
		t.Fatal(err)
	}
	// Inject a >5% bandwidth drop into the first entry.
	rec.Entries[0].BandwidthMBps *= 0.90
	if err := obs.SaveRunRecord(newPath, rec); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := runDiff([]string{oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("regressed ledger exit %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("diff output missing REGRESSION marker:\n%s", out.String())
	}
	// The same drop passes under a 15% tolerance.
	out.Reset()
	code, err = runDiff([]string{"-tol", "0.15", oldPath, newPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("10%% drop under 15%% tolerance exit %d, want 0:\n%s", code, out.String())
	}
}

// TestRunDiffExactGate pins the exact price gate: four edits to the
// committed fig6 ledger — one bandwidth up 10%, another down 3%, seven
// more rounds on a third entry and a doubled blame term on a fourth —
// all slip through the tolerant diff, fail the exact one, and each
// changed field is named. A freshly priced fig6 ledger passes the exact
// gate against the same baseline.
func TestRunDiffExactGate(t *testing.T) {
	const baseline = "../../baselines/BENCH_fig6.json"
	dir := t.TempDir()
	rec, err := obs.LoadRunRecord(baseline)
	if err != nil {
		t.Fatal(err)
	}
	e := rec.Entries
	e[0].BandwidthMBps *= 1.10
	e[1].BandwidthMBps *= 0.97
	e[2].Rounds += 7
	var term string
	for k := range e[3].Blame {
		if term == "" || k < term {
			term = k
		}
	}
	e[3].Blame[term] *= 2
	perturbed := filepath.Join(dir, "perturbed.json")
	if err := obs.SaveRunRecord(perturbed, rec); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code, err := runDiff([]string{baseline, perturbed}, &out); err != nil || code != 0 {
		t.Fatalf("tolerant diff: code %d err %v, want 0 (the edits are inside its tolerance):\n%s", code, err, out.String())
	}
	out.Reset()
	code, err := runDiff([]string{"-exact", baseline, perturbed}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exact diff of the perturbed ledger exit %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "4 regression(s)") {
		t.Errorf("exact diff should flag exactly the four edited entries:\n%s", out.String())
	}
	for i, field := range []string{"bandwidth_mbps", "bandwidth_mbps", "rounds", "blame." + term} {
		var line string
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, e[i].Name+" ") {
				line = l
			}
		}
		if !strings.Contains(line, "REGRESSION: changed "+field+" ") {
			t.Errorf("entry %s: row does not name the changed %s:\n%s", e[i].Name, field, line)
		}
	}

	fresh := filepath.Join(dir, "fresh.json")
	if err := runBench([]string{"fig6", "-out", fresh}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code, err = runDiff([]string{"-exact", baseline, fresh}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || !strings.Contains(out.String(), "no regressions") {
		t.Fatalf("fresh fig6 ledger fails the exact gate (exit %d):\n%s", code, out.String())
	}
}

func TestRunDiffErrors(t *testing.T) {
	var out bytes.Buffer
	if code, err := runDiff([]string{"only-one.json"}, &out); code != 2 || err == nil {
		t.Fatalf("one-arg diff: code %d err %v, want 2 and error", code, err)
	}
	if code, err := runDiff([]string{"nope-a.json", "nope-b.json"}, &out); code != 2 || err == nil {
		t.Fatalf("missing-file diff: code %d err %v, want 2 and error", code, err)
	}
}

// driftArchive writes a synthetic 10-record history in which every
// entry's bandwidth decays 1% per run — each adjacent step inside the
// 5% pairwise tolerance, the accumulated fall far beyond it.
func driftArchive(t *testing.T, dir string) []string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var paths []string
	bw := 1000.0
	for i := 0; i < 10; i++ {
		rec := &obs.RunRecord{
			Name:      "fig6",
			UnixNanos: int64(i+1) * 1_000_000_000,
			Entries: []obs.RunEntry{
				{Name: "memory-conscious/write/mem=16", BandwidthMBps: bw, WallSeconds: 1e6 / bw},
				{Name: "control/steady", BandwidthMBps: 500, WallSeconds: 2},
			},
		}
		p := filepath.Join(dir, fmt.Sprintf("%05d-test-fig6.json", i+1))
		if err := obs.SaveRunRecord(p, rec); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
		bw *= 0.99
	}
	return paths
}

// TestTrendCatchesDriftPairwiseDiffMisses is the tentpole acceptance
// demo at the CLI level: on a 10-record series with an injected
// 1%-per-run bandwidth drift, `mcio diff` between every adjacent pair
// exits zero at the default tolerance, while `mcio trend` over the same
// directory exits non-zero and names the drifting entries.
func TestTrendCatchesDriftPairwiseDiffMisses(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "history")
	paths := driftArchive(t, dir)

	for i := 1; i < len(paths); i++ {
		var out bytes.Buffer
		code, err := runDiff([]string{paths[i-1], paths[i]}, &out)
		if err != nil {
			t.Fatal(err)
		}
		if code != 0 {
			t.Fatalf("adjacent diff %d exited %d; the 1%% step must pass the 5%% pairwise gate:\n%s",
				i, code, out.String())
		}
	}

	var out bytes.Buffer
	code, err := runTrend([]string{dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("trend over drifting history exited %d, want 1:\n%s", code, out.String())
	}
	for _, must := range []string{"DRIFT", "memory-conscious/write/mem=16"} {
		if !strings.Contains(out.String(), must) {
			t.Errorf("trend output does not name the drift (%q missing):\n%s", must, out.String())
		}
	}
	if strings.Contains(out.String(), "control/steady      ") && strings.Contains(out.String(), "DRIFT: control") {
		t.Errorf("steady control entry flagged:\n%s", out.String())
	}

	// The clean prefix of the same history (first 4 records, 3% total
	// drift) stays under tolerance: exit 0.
	out.Reset()
	code, err = runTrend(paths[:4], &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("trend over the sub-tolerance prefix exited %d, want 0:\n%s", code, out.String())
	}
}

// TestRunDiffDirectoryNewestVsOldest: diff over a directory compares
// the oldest record with the newest by timestamp, not by file name.
func TestRunDiffDirectoryNewestVsOldest(t *testing.T) {
	dir := t.TempDir()
	// File names deliberately out of time order.
	mk := func(file string, nanos int64, bw float64) {
		rec := &obs.RunRecord{Name: "fig6", UnixNanos: nanos,
			Entries: []obs.RunEntry{{Name: "e", BandwidthMBps: bw}}}
		if err := obs.SaveRunRecord(filepath.Join(dir, file), rec); err != nil {
			t.Fatal(err)
		}
	}
	mk("b-newest.json", 300, 2000) // newest: bandwidth doubled — an improvement
	mk("a-middle.json", 200, 500)  // a middle dip that must not be compared
	mk("c-oldest.json", 100, 1000)
	var out bytes.Buffer
	code, err := runDiff([]string{dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("oldest->newest is an improvement, exit %d want 0:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "c-oldest.json -> ") || !strings.Contains(out.String(), "b-newest.json") {
		t.Errorf("diff did not pick oldest vs newest by timestamp:\n%s", out.String())
	}
}

func TestRunBenchWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	var out bytes.Buffer
	err := runBench([]string{"fig7", "-scale", strconv.Itoa(testScale), "-seed", "1",
		"-out", filepath.Join(dir, "BENCH.json"), "-cpuprofile", cpu, "-memprofile", mem}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(p))
		}
	}
}

func TestRunBenchRefusesOverwriteWithoutForce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"name":"old","entries":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := runBench([]string{"fig7", "-scale", strconv.Itoa(testScale), "-out", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "-force") {
		t.Fatalf("bench overwrote an existing ledger without -force (err=%v)", err)
	}
	if b, _ := os.ReadFile(path); !strings.Contains(string(b), `"old"`) {
		t.Fatal("existing ledger was clobbered by the refused run")
	}
	out.Reset()
	if err := runBench([]string{"fig7", "-scale", strconv.Itoa(testScale), "-out", path, "-force"}, &out); err != nil {
		t.Fatal(err)
	}
	rec, err := obs.LoadRunRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "fig7" || rec.Version != obs.RunRecordVersion || rec.UnixNanos == 0 || rec.Host == nil {
		t.Fatalf("forced ledger missing v2 provenance: %+v", rec)
	}
}

// TestBenchArchiveChaosFlowsThroughTrendAndReport covers the archive
// satellite and the chaos acceptance criterion end to end: two chaos
// bench runs archived under sequenced names load back, pass the trend
// gate (identical seeds — steady metrics), and render to a
// byte-identical report across reruns.
func TestBenchArchiveChaosFlowsThroughTrendAndReport(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "history")
	var out bytes.Buffer
	for i := 0; i < 2; i++ {
		out.Reset()
		if err := runBench([]string{"chaos", "-seed", "1", "-archive", dir}, &out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "archived ledger") {
			t.Fatalf("bench -archive output missing confirmation: %s", out.String())
		}
	}
	entries, err := filepath.Glob(filepath.Join(dir, "0000*-*-chaos.json"))
	if err != nil || len(entries) != 2 {
		t.Fatalf("archive names wrong: %v, %v", entries, err)
	}

	out.Reset()
	code, err := runTrend([]string{dir}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("identical chaos records flagged by trend:\n%s", out.String())
	}
	for _, must := range []string{"chaos/detection", "chaos/repair", "chaos/degradation", "detected"} {
		if !strings.Contains(out.String(), must) {
			t.Errorf("trend table missing chaos series %q:\n%s", must, out.String())
		}
	}

	render := func(name string) []byte {
		p := filepath.Join(t.TempDir(), name)
		var rout bytes.Buffer
		if err := runReport([]string{"-out", p, dir}, &rout); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := render("a.html")
	if !bytes.Equal(first, render("b.html")) {
		t.Fatal("report bytes differ across reruns on the same history")
	}
	if !bytes.Contains(first, []byte("chaos/detection")) || !bytes.Contains(first, []byte("<svg")) {
		t.Error("report missing chaos sparklines")
	}
}

// flameLines writes runs' flamegraph and returns its lines as stack ->
// microseconds, failing on a malformed line or a repeated stack.
func flameLines(t *testing.T, runs []analyze.Run) map[string]int64 {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.folded")
	if err := writeFile(path, func(f *os.File) error { return analyze.WriteFlame(f, runs) }); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.Count(line[:sp], ";") != 2 {
			t.Fatalf("malformed line %q", line)
		}
		us, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil || us <= 0 {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		if _, dup := out[line[:sp]]; dup {
			t.Fatalf("stack %q repeated", line[:sp])
		}
		out[line[:sp]] = us
	}
	if len(out) == 0 {
		t.Fatal("flame file empty")
	}
	return out
}

// flamePhases sums one process's flame lines by phase, and counts them.
func flamePhases(lines map[string]int64, process string) (phases map[string]int64, n int) {
	phases = map[string]int64{}
	for stack, us := range lines {
		frames := strings.Split(stack, ";")
		if frames[0] == strings.ReplaceAll(process, " ", "_") {
			phases[frames[2]] += us
			n++
		}
	}
	return phases, n
}

// TestObserveFlameSumsToWall is the acceptance check: the collapsed
// stacks exported for a figure run sum (within rounding) to the run's
// simulated wall time per process.
func TestObserveFlameSumsToWall(t *testing.T) {
	res, err := bench.Observe("fig6", testScale, 42, 16, collio.Write)
	if err != nil {
		t.Fatal(err)
	}
	lines := flameLines(t, res.Runs)
	for _, r := range res.Runs {
		phases, n := flamePhases(lines, r.Name)
		var got int64
		for _, us := range phases {
			got += us
		}
		if want := r.Wall * 1e6; math.Abs(float64(got)-want) > float64(n)+1 {
			t.Errorf("process %s: flame total %d µs, wall %.3f µs — off beyond rounding", r.Name, got, want)
		}
	}
}

// TestObserveFlameMatchesRoundBlame pins the flame of a clean run to the
// blame of its round records, the numbers the observe summary prints:
// every phase within a microsecond per line, and no round time lost to
// "other" (a span tree once dropped io spans whose float end passed
// their round's, 40 ms of two-phase's write and paging at this point).
func TestObserveFlameMatchesRoundBlame(t *testing.T) {
	res, err := bench.Observe("fig6", 64, 42, 16, collio.Write)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 2 {
		t.Fatalf("got %d runs, want both strategies", len(res.Runs))
	}
	lines := flameLines(t, res.Runs)
	for stack := range lines {
		if strings.HasSuffix(stack, ";data;other") {
			t.Errorf("round time charged to other: %s %d µs", stack, lines[stack])
		}
	}
	for _, r := range res.Runs {
		phases, n := flamePhases(lines, r.Name)
		want := analyze.BlameFromTrace(r.Trace, r.Overlap)
		for _, phase := range analyze.Phases() {
			if got := phases[phase]; math.Abs(float64(got)-want[phase]*1e6) > float64(n) {
				t.Errorf("%s %s: flame %d µs, round records %.3f µs", r.Name, phase, got, want[phase]*1e6)
			}
		}
	}
}

// TestObserveFaultsFlameRecovery checks a faulted run's flame: recovery
// is the round records' recovery blame plus the stalls (the run's
// recovery time minus its recovery rounds'), and the lines sum to wall.
func TestObserveFaultsFlameRecovery(t *testing.T) {
	res, err := bench.ObserveFaults(bench.DefaultScale, 42, 16, collio.Write, 2)
	if err != nil {
		t.Fatal(err)
	}
	lines := flameLines(t, res.Runs)
	stalled := false
	for _, r := range res.Runs {
		phases, n := flamePhases(lines, r.Name)
		stall := r.Recovery
		for _, e := range r.Trace {
			if e.Recovery {
				stall -= e.Cost.Time
			}
		}
		stalled = stalled || stall > 1e-6
		want := analyze.BlameFromTrace(r.Trace, r.Overlap)[analyze.PhaseRecovery] + stall
		if got := phases[analyze.PhaseRecovery]; math.Abs(float64(got)-want*1e6) > float64(n) {
			t.Errorf("%s: flame recovery %d µs, want %.3f µs", r.Name, got, want*1e6)
		}
		var total int64
		for _, us := range phases {
			total += us
		}
		if math.Abs(float64(total)-r.Wall*1e6) > float64(n)+1 {
			t.Errorf("%s: flame total %d µs, wall %.3f µs", r.Name, total, r.Wall*1e6)
		}
	}
	if !stalled {
		t.Fatal("no run stalled; the check needs a stall")
	}
}
