package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"mcio/internal/bench"
	"mcio/internal/collio"
	"mcio/internal/obs"
)

// gitCommit is stamped by run.sh through -ldflags; "unknown" otherwise.
var gitCommit = "unknown"

// expectedJSON holds the ledger digests -check-baselines recorded.
//
//go:embed expected.json
var expectedJSON []byte

// expected is the committed price fingerprint: the ledger digest of every
// workload at each seed in digestSeeds.
type expected struct {
	Digest map[string]map[uint64]string `json:"ledger_sha256"`
}

func loadExpected() (expected, error) {
	var exp expected
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		return exp, fmt.Errorf("expected.json: %w", err)
	}
	return exp, nil
}

type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GitCommit  string `json:"git_commit"`
}

func currentHost() hostInfo {
	return hostInfo{runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), gitCommit}
}

// header is the line a run prints before its result: what ran, where,
// and the fingerprint of the prices it produced.
type header struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// PricedSeeds are the seeds the prices come from (see workload.seeds).
	PricedSeeds []uint64 `json:"priced_seeds"`
	Trace       int      `json:"trace"`
	Passes      int      `json:"passes"`
	// SweepWallSeconds is the median wall time of an untraced pass. It is
	// not an end-to-end metric: on a shared virtual machine it includes
	// the time the hypervisor steals, which CPU time leaves out.
	SweepWallSeconds float64  `json:"sweep_wall_s,omitempty"`
	Cells            int      `json:"cells"`
	LedgerSHA256     string   `json:"ledger_sha256"`
	Host             hostInfo `json:"host"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) set(defs []metricDef, values map[string]float64) {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		r.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
}

// Set-up is timed in batches of at least setupBatch, each after a
// collection so one batch's garbage is not charged to the next, until
// setupTarget has passed and setupBatches batches ran.
const (
	setupBatch   = 20 * time.Millisecond
	setupBatches = 9
	setupTarget  = time.Second
)

// setupSeconds returns the median CPU time of one set-up.
func setupSeconds(w *workload, cfg bench.Config) (float64, error) {
	t0 := time.Now()
	if err := w.setup(cfg); err != nil {
		return 0, err
	}
	k := int(setupBatch/max(time.Since(t0), time.Microsecond)) + 1
	var per []float64
	for start := time.Now(); len(per) < setupBatches || time.Since(start) < setupTarget; {
		runtime.GC()
		c0 := cpuSeconds()
		for i := 0; i < k; i++ {
			if err := w.setup(cfg); err != nil {
				return 0, err
			}
		}
		per = append(per, (cpuSeconds()-c0)/float64(k))
	}
	return median(per), nil
}

// cpuSeconds is the process's user and system CPU time so far, over all
// threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runEndToEnd measures a workload with tracing off: set-up repeated for
// its median, then passes back to back for at least seconds, each
// starting from an empty plan cache and a collected heap.
func runEndToEnd(w *workload, cfgs []bench.Config, seconds time.Duration) (*header, *result, error) {
	wl, err := w.gen(cfgs[0])
	if err != nil {
		return nil, nil, err
	}
	setup, err := setupSeconds(w, cfgs[0])
	if err != nil {
		return nil, nil, err
	}
	sample := []metrics.Sample{{Name: heapAllocsMetric}}
	var first []obs.RunEntry
	var walls, cpus, allocs []float64
	res := &result{}
	for start := time.Now(); len(walls) == 0 || time.Since(start) < seconds; {
		collio.ResetPlanCache()
		runtime.GC()
		a0 := readHeapAllocs(sample)
		c0 := cpuSeconds()
		t0 := time.Now()
		entries, failed, err := w.runPass(cfgs, nil)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - c0
		a1 := readHeapAllocs(sample)
		walls = append(walls, wall)
		cpus = append(cpus, cpu)
		allocs = append(allocs, float64(a1-a0)/mib)
		res.Attempted += len(entries) + failed
		res.Failed += failed
		if len(walls) == 1 {
			reportFailure(w, err)
			first = entries
			res.Failed += brokenCells(first, wl.TotalBytes())
		} else {
			res.Failed += differingCells(first, entries)
		}
	}
	res.Correct = res.Failed == 0
	res.set(endToEnd, map[string]float64{
		"sweep_cpu_s": median(cpus),
		"setup_s":     setup,
		"alloc_mb":    median(allocs),
	})
	h := newHeader(w, cfgs, len(walls), first)
	h.SweepWallSeconds = median(walls)
	return h, res, nil
}

// reportFailure names on standard error the platforms whose pass failed;
// their cells are counted as failed in the result.
func reportFailure(w *workload, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcio-bench: %s: failed cells: %v\n", w.name, err)
	}
}

// newHeader describes a run; main sets Seed to the seed asked for.
func newHeader(w *workload, cfgs []bench.Config, passes int, entries []obs.RunEntry) *header {
	h := &header{Workload: w.name, Seed: cfgs[0].Seed, Passes: passes, Cells: len(entries),
		LedgerSHA256: ledgerDigest(entries), Host: currentHost()}
	for _, cfg := range cfgs {
		h.PricedSeeds = append(h.PricedSeeds, cfg.Seed)
	}
	return h
}

// runTraced makes one traced pass and writes its spans to traceOut. Its
// cells must be the end-to-end cells bit for bit: when their digest is
// the one recorded for this workload and seed they are, and otherwise an
// untraced pass prices them again for a cell-by-cell comparison. want is
// the recorded digest, "" when none is.
func runTraced(w *workload, cfgs []bench.Config, traceOut, want string) (*header, *result, error) {
	wl, err := w.gen(cfgs[0])
	if err != nil {
		return nil, nil, err
	}
	collio.ResetPlanCache()
	runtime.GC()
	tr := newTracer(w.name)
	t0 := time.Now()
	got, failed, err := w.runPass(cfgs, tr)
	wall := time.Since(t0).Seconds() - tr.diagSeconds
	reportFailure(w, err)

	res := &result{Attempted: len(got) + failed}
	res.Failed = failed + brokenCells(got, wl.TotalBytes())
	h := newHeader(w, cfgs, 1, got)
	values := map[string]float64{}
	if want != "" {
		values["prices_expected_known"] = 1
	}
	if want != "" && want == h.LedgerSHA256 {
		values["prices_match_expected"] = 1
	} else {
		collio.ResetPlanCache()
		runtime.GC()
		ref, refFailed, err := w.runPass(cfgs, nil)
		reportFailure(w, err)
		res.Attempted += len(ref) + refFailed
		res.Failed += refFailed + differingCells(ref, got)
	}
	res.Correct = res.Failed == 0

	for name, st := range tr.layers {
		values[name+"_s"] = st.seconds
		values[name+"_alloc_mb"] = float64(st.allocs) / mib
		values[name+"_calls"] = float64(st.calls)
	}
	// Placement is planning minus group division; the diagnostic divides
	// each distinct planning input once.
	if n := values["core.divide_groups_calls"]; n > 0 {
		values["core.place_s"] = values["core.plan_s"] - values["core.divide_groups_s"]/n*values["core.plan_calls"]
	}
	for name, v := range tr.counts {
		values[name] = v
	}
	values["sim.mc_write_MBps"] = mcBandwidth(got, "write")
	values["sim.mc_read_MBps"] = mcBandwidth(got, "read")
	values["trace.wall_s"] = wall
	values["trace.coverage"] = tr.passSpans / wall
	res.set(perLayer(), values)

	if err := writeSpans(traceOut, tr); err != nil {
		return nil, nil, err
	}
	return h, res, nil
}

func writeSpans(path string, tr *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, tr.spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
