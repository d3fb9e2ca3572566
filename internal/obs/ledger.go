package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// RunRecordVersion is the schema version stamped into every ledger
// file. Bump it only for incompatible changes; readers reject files
// with a newer major version than they understand. Version 2 added the
// record timestamp, host metadata and host-side resource telemetry;
// version-1 records load unchanged (the new fields read as absent).
const RunRecordVersion = 2

// ErrNewerVersion marks a ledger whose version is newer than this
// binary supports. Callers that stream over many records (the history
// loader) test for it with errors.Is to abort rather than skip: a
// too-new record is an operator error, not a corrupt file.
var ErrNewerVersion = errors.New("run record version newer than supported")

// RunRecord is the stable on-disk record of one benchmark run — the
// "run ledger". It is what `mcio bench -out` writes and `mcio diff`
// compares, so its JSON shape is a compatibility surface: fields may be
// added, but existing names and meanings must not change.
type RunRecord struct {
	Version int    `json:"version"`
	Name    string `json:"name"` // experiment name (fig6, trajectory, ...)
	// UnixNanos is when the run started, as nanoseconds since the Unix
	// epoch (v2). Zero on v1 records; the history loader and `mcio diff`
	// order records by it, falling back to file order on ties.
	UnixNanos int64             `json:"unix_nanos,omitempty"`
	Host      *HostInfo         `json:"host,omitempty"`      // v2: provenance of the producing host
	Telemetry *Telemetry        `json:"telemetry,omitempty"` // v2: host-side resource usage around the run
	Params    map[string]string `json:"params,omitempty"`    // scale, seed, op, ... as strings
	Entries   []RunEntry        `json:"entries"`
}

// HostInfo is the provenance stamp of the machine and build that
// produced a record — enough to explain why two records of the same
// experiment might lawfully differ.
type HostInfo struct {
	GitCommit  string `json:"git_commit,omitempty"` // short revision, or "local" when unknown
	GoVersion  string `json:"go_version,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	NumCPU     int    `json:"num_cpu,omitempty"`
}

// Telemetry is host-side resource usage captured around one experiment
// via runtime.ReadMemStats — real wall clock and allocator pressure, as
// opposed to the simulated wall time inside the entries.
type Telemetry struct {
	HostWallSeconds float64 `json:"host_wall_seconds,omitempty"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes,omitempty"` // heap bytes allocated during the run
	PeakHeapBytes   uint64  `json:"peak_heap_bytes,omitempty"`   // heap footprint high-water (HeapSys)
}

// CaptureHost stamps the current process's provenance: git commit
// (from build info when the binary was stamped, else the git CLI, else
// "local"), Go version, GOMAXPROCS and CPU count.
func CaptureHost() *HostInfo {
	return &HostInfo{
		GitCommit:  gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// gitCommit finds the short revision: embedded VCS build info first
// (set for `go build` in a checkout), then `git rev-parse` (covers
// `go run`), else "local".
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if rev := strings.TrimSpace(string(out)); err == nil && rev != "" {
		return rev
	}
	return "local"
}

// RunEntry is one measured configuration within a run (one sweep point:
// a strategy at a memory fraction, a trajectory step, a fault case).
type RunEntry struct {
	Name          string             `json:"name"`
	BandwidthMBps float64            `json:"bandwidth_mbps,omitempty"`
	WallSeconds   float64            `json:"wall_seconds,omitempty"`
	Rounds        int                `json:"rounds,omitempty"`
	Blame         map[string]float64 `json:"blame,omitempty"`   // phase -> critical-path seconds
	Metrics       map[string]float64 `json:"metrics,omitempty"` // free-form extras (peak_buffer_mb, ...)
}

// WriteRunRecord writes the record as indented JSON with entries in
// their given order and a trailing newline.
func WriteRunRecord(w io.Writer, r *RunRecord) error {
	r.Version = RunRecordVersion
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// SaveRunRecord writes the record to a file.
func SaveRunRecord(path string, r *RunRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteRunRecord(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ParseRunRecord decodes a ledger from bytes, rejecting versions newer
// than this binary supports (test with errors.Is(err, ErrNewerVersion)).
func ParseRunRecord(b []byte) (*RunRecord, error) {
	var r RunRecord
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	if r.Version > RunRecordVersion {
		return nil, fmt.Errorf("%w: %d > %d", ErrNewerVersion, r.Version, RunRecordVersion)
	}
	return &r, nil
}

// LoadRunRecord reads a ledger file, rejecting unknown versions.
func LoadRunRecord(path string) (*RunRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := ParseRunRecord(b)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// HarnessSuffix ends the name of a ledger entry that records the host
// cost of producing the ledger rather than a price.
const HarnessSuffix = "/harness"

// EntryDelta is the comparison of one entry across two ledgers.
type EntryDelta struct {
	Name          string
	OldBandwidth  float64
	NewBandwidth  float64
	BandwidthRel  float64 // (new-old)/old, 0 if old == 0
	OldWall       float64
	NewWall       float64
	WallRel       float64
	Missing       bool // present in old, absent in new
	Added         bool // absent in old, present in new
	Regression    bool
	RegressionWhy string
	// Changed names each field of a priced entry that differs, with its
	// old and new value.
	Changed []string
}

// DiffResult is the outcome of comparing two run ledgers.
type DiffResult struct {
	OldName string
	NewName string
	Deltas  []EntryDelta
}

// Regressions returns the deltas flagged as regressions.
func (d *DiffResult) Regressions() []EntryDelta {
	var out []EntryDelta
	for _, e := range d.Deltas {
		if e.Regression {
			out = append(out, e)
		}
	}
	return out
}

// DiffRunRecords compares two ledgers entry by entry (matched by entry
// name). Prices are deterministic, so they are compared exactly: a
// priced entry with any changed field (bandwidth, simulated wall,
// rounds, blame or metrics), missing from the new ledger, or absent
// from the old one is a regression. Host-cost entries (names ending in
// HarnessSuffix), whose host wall time and allocation vary from run to
// run, are listed but never gate; the same-host trend judges them.
func DiffRunRecords(old, new *RunRecord) *DiffResult {
	res := &DiffResult{OldName: old.Name, NewName: new.Name}
	newByName := make(map[string]RunEntry, len(new.Entries))
	seen := make(map[string]bool, len(new.Entries))
	for _, e := range new.Entries {
		newByName[e.Name] = e
	}
	priced := func(name string) bool { return !strings.HasSuffix(name, HarnessSuffix) }
	for _, oe := range old.Entries {
		ne, ok := newByName[oe.Name]
		if !ok {
			d := EntryDelta{Name: oe.Name, OldBandwidth: oe.BandwidthMBps, OldWall: oe.WallSeconds, Missing: true}
			if priced(oe.Name) {
				d.Regression, d.RegressionWhy = true, "entry missing from new ledger"
			}
			res.Deltas = append(res.Deltas, d)
			continue
		}
		seen[oe.Name] = true
		d := EntryDelta{
			Name:         oe.Name,
			OldBandwidth: oe.BandwidthMBps, NewBandwidth: ne.BandwidthMBps,
			OldWall: oe.WallSeconds, NewWall: ne.WallSeconds,
		}
		if oe.BandwidthMBps > 0 {
			d.BandwidthRel = (ne.BandwidthMBps - oe.BandwidthMBps) / oe.BandwidthMBps
		}
		if oe.WallSeconds > 0 {
			d.WallRel = (ne.WallSeconds - oe.WallSeconds) / oe.WallSeconds
		}
		if priced(oe.Name) {
			if d.Changed = changedFields(oe, ne); len(d.Changed) > 0 {
				d.Regression, d.RegressionWhy = true, "changed "+strings.Join(d.Changed, ", ")
			}
		}
		res.Deltas = append(res.Deltas, d)
	}
	var added []string
	for name := range newByName {
		if !seen[name] {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		ne := newByName[name]
		d := EntryDelta{Name: name, NewBandwidth: ne.BandwidthMBps, NewWall: ne.WallSeconds, Added: true}
		if priced(name) {
			d.Regression, d.RegressionWhy = true, "entry absent from old ledger"
		}
		res.Deltas = append(res.Deltas, d)
	}
	return res
}

// changedFields lists every priced field that differs between two
// entries of the same name, as "field old -> new", floats compared and
// printed exactly.
func changedFields(old, new RunEntry) []string {
	var out []string
	num := func(field string, a, b float64, inOld, inNew bool) {
		if a == b && inOld == inNew {
			return
		}
		v := func(x float64, in bool) string {
			if !in {
				return "absent"
			}
			return strconv.FormatFloat(x, 'g', -1, 64)
		}
		out = append(out, fmt.Sprintf("%s %s -> %s", field, v(a, inOld), v(b, inNew)))
	}
	num("bandwidth_mbps", old.BandwidthMBps, new.BandwidthMBps, true, true)
	num("wall_seconds", old.WallSeconds, new.WallSeconds, true, true)
	num("rounds", float64(old.Rounds), float64(new.Rounds), true, true)
	for _, m := range []struct {
		field    string
		old, new map[string]float64
	}{{"blame", old.Blame, new.Blame}, {"metrics", old.Metrics, new.Metrics}} {
		keys := make([]string, 0, len(m.old)+len(m.new))
		for k := range m.old {
			keys = append(keys, k)
		}
		for k := range m.new {
			if _, ok := m.old[k]; !ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			a, inOld := m.old[k]
			b, inNew := m.new[k]
			num(m.field+"."+k, a, b, inOld, inNew)
		}
	}
	return out
}

// Render formats the diff as an aligned text table, one row per entry,
// flagged rows marked REGRESSION.
func (d *DiffResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ledger diff: %s -> %s\n", d.OldName, d.NewName)
	fmt.Fprintf(&b, "%-28s %12s %12s %8s %10s %10s %8s  %s\n",
		"entry", "old MB/s", "new MB/s", "Δbw", "old wall", "new wall", "Δwall", "status")
	for _, e := range d.Deltas {
		status := "ok"
		switch {
		case e.Regression:
			status = "REGRESSION: " + e.RegressionWhy
		case e.Added:
			status = "new entry"
		case e.Missing:
			status = "missing entry"
		}
		fmt.Fprintf(&b, "%-28s %12s %12s %8s %10s %10s %8s  %s\n",
			e.Name,
			fmtLedgerVal(e.OldBandwidth), fmtLedgerVal(e.NewBandwidth), fmtLedgerRel(e.BandwidthRel, e.Missing || e.Added),
			fmtLedgerSec(e.OldWall), fmtLedgerSec(e.NewWall), fmtLedgerRel(e.WallRel, e.Missing || e.Added),
			status)
	}
	n := len(d.Regressions())
	if n == 0 {
		fmt.Fprintf(&b, "no regressions (%d entries compared)\n", len(d.Deltas))
	} else {
		fmt.Fprintf(&b, "%d regression(s)\n", n)
	}
	return b.String()
}

func fmtLedgerVal(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}

func fmtLedgerSec(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4fs", v)
}

func fmtLedgerRel(rel float64, na bool) string {
	if na {
		return "-"
	}
	if math.Abs(rel) < 5e-5 {
		return "0.0%"
	}
	return fmt.Sprintf("%+.1f%%", rel*100)
}
