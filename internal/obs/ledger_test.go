package obs

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func ledgerFixture() *RunRecord {
	return &RunRecord{
		Name:   "fig6",
		Params: map[string]string{"scale": "65536", "seed": "1"},
		Entries: []RunEntry{
			{Name: "two-phase/mem=1.0", BandwidthMBps: 1000, WallSeconds: 2.0, Rounds: 16,
				Blame: map[string]float64{"shuffle": 1.2, "write": 0.8}},
			{Name: "memory-conscious/mem=1.0", BandwidthMBps: 1200, WallSeconds: 1.7, Rounds: 16},
		},
	}
}

func TestRunRecordRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_fig6.json")
	rec := ledgerFixture()
	if err := SaveRunRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRunRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != RunRecordVersion {
		t.Errorf("version = %d, want %d", got.Version, RunRecordVersion)
	}
	if got.Name != rec.Name || len(got.Entries) != len(rec.Entries) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Entries[0].Blame["shuffle"] != 1.2 {
		t.Errorf("blame lost in round trip: %+v", got.Entries[0])
	}
}

func TestLoadRunRecordRejectsNewerVersion(t *testing.T) {
	// Bypass Save (which restamps the version) by writing by hand.
	path := filepath.Join(t.TempDir(), "v999.json")
	if err := os.WriteFile(path, []byte(`{"version": 999, "name": "x", "entries": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadRunRecord(path)
	if err == nil {
		t.Fatal("expected version error")
	}
	if !errors.Is(err, ErrNewerVersion) {
		t.Errorf("version error not tagged ErrNewerVersion: %v", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("version error does not name the file: %v", err)
	}
}

func TestLoadRunRecordV1BackwardCompatible(t *testing.T) {
	// A v1 record (no timestamp, host or telemetry) must load cleanly
	// with the new fields absent.
	path := filepath.Join(t.TempDir(), "v1.json")
	v1 := `{"version": 1, "name": "fig6", "params": {"seed": "1"},
	        "entries": [{"name": "a", "bandwidth_mbps": 100, "wall_seconds": 2}]}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := LoadRunRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Version != 1 || r.UnixNanos != 0 || r.Host != nil || r.Telemetry != nil {
		t.Fatalf("v1 record gained phantom v2 fields: %+v", r)
	}
	if r.Entries[0].BandwidthMBps != 100 {
		t.Fatalf("v1 entries mangled: %+v", r.Entries)
	}
}

func TestRunRecordV2RoundTripKeepsProvenance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.json")
	rec := ledgerFixture()
	rec.UnixNanos = 1754524800000000000
	rec.Host = CaptureHost()
	rec.Telemetry = &Telemetry{HostWallSeconds: 1.5, TotalAllocBytes: 4096, PeakHeapBytes: 1 << 20}
	if err := SaveRunRecord(path, rec); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRunRecord(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != RunRecordVersion || got.UnixNanos != rec.UnixNanos {
		t.Fatalf("v2 header lost: %+v", got)
	}
	if got.Host == nil || got.Host.GoVersion == "" || got.Host.GOMAXPROCS <= 0 || got.Host.NumCPU <= 0 || got.Host.GitCommit == "" {
		t.Fatalf("host stamp incomplete: %+v", got.Host)
	}
	if got.Telemetry == nil || got.Telemetry.TotalAllocBytes != 4096 || got.Telemetry.PeakHeapBytes != 1<<20 {
		t.Fatalf("telemetry lost: %+v", got.Telemetry)
	}
}

func TestDiffIdenticalLedgersClean(t *testing.T) {
	old, new := ledgerFixture(), ledgerFixture()
	res := DiffRunRecords(old, new)
	if n := len(res.Regressions()); n != 0 {
		t.Fatalf("identical ledgers produced %d regressions: %s", n, res.Render())
	}
	if !strings.Contains(res.Render(), "no regressions") {
		t.Errorf("render missing clean verdict:\n%s", res.Render())
	}
}

// TestDiffFlagsBandwidthDrop: any bandwidth drop is a regression that
// names the field and both values exactly, a 10% drop and a 3% one
// alike; prices carry no tolerance.
func TestDiffFlagsBandwidthDrop(t *testing.T) {
	for _, c := range []struct {
		bw  float64
		why string
	}{
		{900, "changed bandwidth_mbps 1000 -> 900"},
		{970, "changed bandwidth_mbps 1000 -> 970"},
	} {
		old, new := ledgerFixture(), ledgerFixture()
		new.Entries[0].BandwidthMBps = c.bw
		res := DiffRunRecords(old, new)
		regs := res.Regressions()
		if len(regs) != 1 {
			t.Fatalf("bandwidth %v: got %d regressions, want 1: %s", c.bw, len(regs), res.Render())
		}
		if regs[0].Name != "two-phase/mem=1.0" || regs[0].RegressionWhy != c.why {
			t.Errorf("bandwidth %v: regression %+v, want %q", c.bw, regs[0], c.why)
		}
	}
}

func TestDiffFlagsWallRiseAndMissing(t *testing.T) {
	old, new := ledgerFixture(), ledgerFixture()
	new.Entries[1].WallSeconds = 2.0 // +17.6%
	new.Entries = new.Entries[1:]    // drop the two-phase entry entirely
	res := DiffRunRecords(old, new)
	regs := res.Regressions()
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %s", len(regs), res.Render())
	}
	var sawMissing, sawWall bool
	for _, r := range regs {
		if r.Missing {
			sawMissing = true
		}
		if strings.Contains(r.RegressionWhy, "changed wall_seconds 1.7 -> 2") {
			sawWall = true
		}
	}
	if !sawMissing || !sawWall {
		t.Errorf("missing=%v wall=%v, want both: %s", sawMissing, sawWall, res.Render())
	}
}

// TestDiffReportsAddedEntries: a priced entry new to the new ledger is
// a regression; a new /harness entry is only reported.
func TestDiffReportsAddedEntries(t *testing.T) {
	old, new := ledgerFixture(), ledgerFixture()
	new.Entries = append(new.Entries, RunEntry{Name: "fig6" + HarnessSuffix, Metrics: map[string]float64{"host_wall_seconds": 10}})
	res := DiffRunRecords(old, new)
	if n := len(res.Regressions()); n != 0 {
		t.Fatalf("added harness entry counted as regression: %s", res.Render())
	}
	if !strings.Contains(res.Render(), "new entry") {
		t.Errorf("render missing added entry:\n%s", res.Render())
	}
	new.Entries = append(new.Entries, RunEntry{Name: "extra", BandwidthMBps: 1})
	res = DiffRunRecords(old, new)
	regs := res.Regressions()
	if len(regs) != 1 || regs[0].Name != "extra" || !regs[0].Added || regs[0].RegressionWhy != "entry absent from old ledger" {
		t.Fatalf("added priced entry not flagged alone:\n%s", res.Render())
	}
}

// The diff flags any changed priced field — a metric that appeared, a
// blame term that moved by one ulp — and a priced entry new to the new
// ledger, but never gates /harness host-cost entries, whose wall clock
// and allocation vary between runs, even when one goes missing.
func TestDiffExact(t *testing.T) {
	old, new := ledgerFixture(), ledgerFixture()
	harness := RunEntry{Name: "fig6" + HarnessSuffix, Metrics: map[string]float64{"host_wall_seconds": 10}}
	old.Entries = append(old.Entries, harness)
	harness.Metrics = map[string]float64{"host_wall_seconds": 13}
	new.Entries = append(new.Entries, harness)
	if res := DiffRunRecords(old, new); len(res.Regressions()) != 0 {
		t.Fatalf("harness drift or identical prices flagged:\n%s", res.Render())
	}
	if res := DiffRunRecords(old, ledgerFixture()); len(res.Regressions()) != 0 ||
		!strings.Contains(res.Render(), "missing entry") {
		t.Fatalf("a missing harness entry gates or goes unlisted:\n%s", res.Render())
	}

	new.Entries[0].Blame["write"] = math.Nextafter(0.8, 1)
	new.Entries[1].Metrics = map[string]float64{"domains": 3}
	new.Entries = append(new.Entries, RunEntry{Name: "extra", BandwidthMBps: 1})
	res := DiffRunRecords(old, new)
	if len(res.Regressions()) != 3 {
		t.Fatalf("got %d regressions, want 3:\n%s", len(res.Regressions()), res.Render())
	}
	out := res.Render()
	for _, want := range []string{
		"changed blame.write 0.8 -> 0.8000000000000002",
		"changed metrics.domains absent -> 3",
		"entry absent from old ledger",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render misses %q:\n%s", want, out)
		}
	}
}
