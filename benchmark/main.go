// Command mcio-bench is mcio's host-cost benchmark: it runs five named
// workloads through the program's public entry points and reports what
// producing their prices costs the host — CPU time per pass and per
// set-up, and heap allocation — plus, in a separate traced run, the same
// cost split over the layers.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload collperf-120 --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload exa-ior-1m --trace 1 --trace-out spans.json
//	bash benchmark/run.sh -check-baselines
//	bash benchmark/run.sh compare results/set1 results/set2
//
// The last line of a run's output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it names the
// workload, seed, host and the ledger digest of the prices produced.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"

	"mcio/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcio-bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], out)
	}
	fs := flag.NewFlagSet("mcio-bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all (one process each)")
	seed := fs.Uint64("seed", 42, "seed of the availability draw and the fault schedules")
	seconds := fs.Float64("seconds", 12, "run passes back to back for at least this long (one pass at least)")
	trace := fs.Int("trace", 0, "1 makes one traced pass and reports per-layer metrics instead")
	traceOut := fs.String("trace-out", "", "Chrome/Perfetto span file of the traced pass (default .bench_build/trace-<workload>.json)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run here")
	memProfile := fs.String("memprofile", "", "write an allocation profile of the run here")
	check := fs.Bool("check-baselines", false, "price every workload at seed 42 and seeds 1-10, compare the seed-42 cells with the committed ledgers bit for bit, and record the digests in benchmark/expected.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	// Serial cells: ledgers are scheduling-invariant, so one worker
	// measures the program rather than the scheduler of a shared host.
	bench.SetParallelism(1)
	if *check {
		return checkBaselines(out)
	}
	if *name == "all" {
		if *cpuProfile != "" || *memProfile != "" || *traceOut != "" {
			return errors.New("profiles and -trace-out take one workload, not all")
		}
		return runAll(args, out)
	}
	w := findWorkload(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q; choose one of %s or all", *name, strings.Join(workloadNames(), ", "))
	}
	cfgs := w.configs(bench.DefaultScale, *seed)
	exp, err := loadExpected()
	if err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var h *header
	var res *result
	if *trace == 1 {
		path := *traceOut
		if path == "" {
			path = ".bench_build/trace-" + w.name + ".json"
		}
		h, res, err = runTraced(w, cfgs, path, exp.Digest[w.name][*seed])
	} else {
		h, res, err = runEndToEnd(w, cfgs, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	h.Seed, h.Trace = *seed, *trace
	if *memProfile != "" {
		if err := writeAllocProfile(*memProfile); err != nil {
			return err
		}
	}
	return printRun(out, h, res)
}

func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printRun(out io.Writer, h *header, res *result) error {
	enc := json.NewEncoder(out)
	if err := enc.Encode(h); err != nil {
		return err
	}
	return enc.Encode(res)
}

// runAll re-runs this binary once per workload, so each starts with a
// cold plan cache and a fresh heap.
func runAll(args []string, out io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range workloads {
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.name)...)
		cmd.Stdout = out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
