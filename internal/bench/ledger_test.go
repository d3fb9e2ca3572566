package bench

import (
	"math"
	"testing"

	"mcio/internal/obs"
	"mcio/internal/obs/analyze"
)

func TestLedgerFig7(t *testing.T) {
	rec, err := Ledger("fig7", testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "fig7" || rec.Params["seed"] != "1" {
		t.Fatalf("ledger header wrong: %+v", rec)
	}
	// 2 strategies x 2 ops x 7 memory points.
	if len(rec.Entries) != 28 {
		t.Fatalf("got %d entries, want 28", len(rec.Entries))
	}
	for _, e := range rec.Entries {
		if e.BandwidthMBps <= 0 || e.WallSeconds <= 0 || e.Rounds <= 0 {
			t.Fatalf("entry %s has empty headline numbers: %+v", e.Name, e)
		}
		if len(e.Blame) == 0 {
			t.Fatalf("entry %s has no blame", e.Name)
		}
		var total float64
		for _, v := range e.Blame {
			total += v
		}
		if math.Abs(total-e.WallSeconds) > 1e-9*e.WallSeconds {
			t.Errorf("entry %s: blame total %v != wall %v", e.Name, total, e.WallSeconds)
		}
	}
}

func TestLedgerTrajectoryAndFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("trajectory+faults ledger is slow")
	}
	rec, err := Ledger("trajectory", testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Entries) != 10 { // 5 design points x 2 strategies
		t.Fatalf("trajectory: got %d entries, want 10", len(rec.Entries))
	}
	// Seed 5 keeps a live relocation host at every fault rate (seed 1
	// wipes out every candidate at rate 4, a legitimate planner error).
	frec, err := Ledger("faults", testScale, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(frec.Entries) != 10 { // 5 rates x 2 strategies
		t.Fatalf("faults: got %d entries, want 10", len(frec.Entries))
	}
	var sawRecovery bool
	for _, e := range frec.Entries {
		var total float64
		for _, v := range e.Blame {
			total += v
		}
		if math.Abs(total-e.WallSeconds) > 1e-9*e.WallSeconds {
			t.Errorf("faults entry %s: blame total %v != wall %v", e.Name, total, e.WallSeconds)
		}
		if e.Blame[analyze.PhaseRecovery] > 0 {
			sawRecovery = true
		}
	}
	if !sawRecovery {
		t.Error("no faulted entry attributed recovery time")
	}
}

// TestLedgerChaos: the chaos soak emits a loadable RunRecord whose
// metrics-only entries (detection counts, repair bytes, degradation
// rungs) flow through the trend analyzer unchanged.
func TestLedgerChaos(t *testing.T) {
	rec, err := Ledger("chaos", testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "chaos" || rec.Params["ops"] != "50" || rec.Params["repair"] != "true" {
		t.Fatalf("chaos ledger header wrong: %+v", rec)
	}
	want := map[string][]string{
		"chaos/detection":   {"injected_flips", "injected_torn", "detected", "undetected"},
		"chaos/repair":      {"repaired", "unrepaired", "rewritten_bytes", "sums_stamped", "sums_verified"},
		"chaos/degradation": {"collective_ops", "shrunk_ops", "independent_ops", "violations"},
	}
	if len(rec.Entries) != len(want) {
		t.Fatalf("got %d entries, want %d", len(rec.Entries), len(want))
	}
	for _, e := range rec.Entries {
		keys, ok := want[e.Name]
		if !ok {
			t.Fatalf("unexpected entry %q", e.Name)
		}
		if e.BandwidthMBps != 0 || e.WallSeconds != 0 {
			t.Errorf("chaos entry %s has phantom headline numbers", e.Name)
		}
		for _, k := range keys {
			if _, ok := e.Metrics[k]; !ok {
				t.Errorf("entry %s missing metric %q", e.Name, k)
			}
		}
	}
	// The seed-1 campaign detects every injection and repairs cleanly.
	for _, e := range rec.Entries {
		if e.Name == "chaos/detection" {
			if e.Metrics["detected"] <= 0 || e.Metrics["undetected"] != 0 {
				t.Errorf("detection metrics off: %+v", e.Metrics)
			}
		}
	}
	// Deterministic: same seed, same record.
	again, err := Ledger("chaos", testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := obs.DiffRunRecords(rec, again)
	if n := len(res.Regressions()); n != 0 {
		t.Fatalf("chaos ledger not deterministic: %d regressions", n)
	}
}

func TestStampedLedgerProvenance(t *testing.T) {
	rec, err := StampedLedger("fig7", testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rec.UnixNanos == 0 {
		t.Error("stamped ledger missing timestamp")
	}
	if rec.Host == nil || rec.Host.GoVersion == "" || rec.Host.NumCPU <= 0 {
		t.Errorf("stamped ledger missing host info: %+v", rec.Host)
	}
	if rec.Telemetry == nil || rec.Telemetry.HostWallSeconds <= 0 ||
		rec.Telemetry.TotalAllocBytes == 0 || rec.Telemetry.PeakHeapBytes == 0 {
		t.Errorf("stamped ledger missing telemetry: %+v", rec.Telemetry)
	}
}

func TestLedgerUnknownExperiment(t *testing.T) {
	if _, err := Ledger("fig99", testScale, 1); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestLedgerDeterministicAndDiffClean(t *testing.T) {
	a, err := Ledger("fig7", testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Ledger("fig7", testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	res := obs.DiffRunRecords(a, b)
	if n := len(res.Regressions()); n != 0 {
		t.Fatalf("identical runs diff dirty: %d regressions\n%s", n, res.Render())
	}
}

func TestTrajectoryBlameTable(t *testing.T) {
	tb, err := TrajectoryBlame(testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(tb.Rows))
	}
	if len(tb.Header) != 3+len(analyze.Phases()) {
		t.Fatalf("header %v missing phase columns", tb.Header)
	}
}
