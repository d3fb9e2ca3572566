// Command mcio regenerates the tables and figures of "Memory-Conscious
// Collective I/O for Extreme Scale HPC Systems" on the simulated
// substrate.
//
// Usage:
//
//	mcio -exp table1                # the paper's Table 1
//	mcio -exp fig6 -scale 64        # coll_perf sweep (Figure 6)
//	mcio -exp fig7                  # IOR at 120 cores (Figure 7)
//	mcio -exp fig8                  # IOR at 1080 cores (Figure 8)
//	mcio -exp fig2|fig4|fig5        # illustrative traces of the mechanisms
//	mcio -exp ablation              # design-choice ablations
//	mcio -exp faults                # resilience under injected faults
//	mcio -exp all                   # every -exp experiment, in order
//
// Every experiment name below — the -exp values and the bench, observe,
// profile and chaos choices — comes from one registry table in
// internal/bench; each front end offers the records that support it,
// in table order, and `mcio <subcommand> -h` lists them.
//
// The observe subcommand runs one figure workload with full
// observability and exports a Chrome/Perfetto trace (simulated time), a
// metrics snapshot (JSON, CSV or Prometheus text), and a collapsed-stack
// flamegraph of the critical path; -faults adds seeded fault injection:
//
//	mcio observe fig7 -trace-out trace.json -metrics-out metrics.json
//	mcio observe fig6 -flame-out fig6.folded
//	mcio observe fig7 -faults 2 -trace-out faulted.json
//
// The bench subcommand runs one experiment and writes its run ledger —
// a stable versioned JSON record of bandwidth, wall time, per-phase
// critical-path blame and host provenance (git commit, go version,
// CPU counts, wall clock and allocator telemetry) — and diff compares
// ledgers, exiting non-zero when the new one regresses beyond tolerance,
// or with -exact when any price differs at all (the CI perf gate: prices
// are deterministic, so only the /harness host-cost entries keep a
// tolerance). diff accepts directories and globs, comparing the
// oldest record against the newest by timestamp; bench refuses to
// overwrite an existing -out file unless -force is given, and -archive
// appends the record to a history directory under an auto-sequenced
// name; -cpuprofile and -memprofile write pprof profiles of the run:
//
//	mcio bench fig6 -out BENCH_fig6.json
//	mcio bench chaos -archive baselines/history
//	mcio bench fig-exa -cpuprofile cpu.out -memprofile mem.out
//	mcio diff baselines/BENCH_fig6.json BENCH_fig6.json -tol 0.05
//	mcio diff -exact baselines/BENCH_fig6.json BENCH_fig6.json
//	mcio diff baselines/history
//
// The trend subcommand is the gate pairwise diff cannot provide: it
// loads a whole record history (mixed v1/v2 records) and classifies
// every entry series as ok, an abrupt step (rolling-median changepoint)
// or slow drift (least-squares slope accumulating past tolerance even
// though each individual run stayed inside it), exiting non-zero on any
// flag; report renders the same analysis as a self-contained HTML page
// with inline SVG sparklines (no JS, no external assets, byte-identical
// across reruns):
//
//	mcio trend baselines/history
//	mcio report baselines/history -out report.html
//
// The chaos subcommand runs a seeded campaign of randomized collective
// operations, checking an invariant battery after every operation and
// exiting non-zero on any violation or undetected corruption. The
// default corruption soak injects silent corruption (message bit flips,
// torn OST writes) through the end-to-end integrity layer; the gray
// campaign adds gray failures (degrading OSTs, flaky NICs, memory
// leaks) and checks the adaptive policy — suspicion, proactive
// failover, circuit breakers, hedged requests — against the static
// baseline, ending with a pinned duel the adaptive plan must win:
//
//	mcio chaos -seed 1 -ops 50
//	mcio chaos -seed 7 -ops 200 -rate 4 -repair=false
//	mcio chaos gray -seed 1 -ops 10
//
// The profile subcommand runs one experiment with the sampling timeline
// recorder attached and writes a time-resolved report: per-OST
// busy/queue, per-NIC bytes, per-node memory-pressure and
// staging-buffer series, with every journal event (fault onsets,
// suspicion crossings, breaker transitions, failovers, degradation
// rungs, hedges, repairs) overlaid, plus the saturation analysis —
// which resource saturates first, and when. The HTML report is
// self-contained (inline SVG, no JS) and byte-identical across reruns;
// the gray experiment profiles the pinned gray-failure duel so the
// onset -> suspicion -> breaker reaction chain lands on one timeline:
//
//	mcio profile fig6 -out timeline.html
//	mcio profile gray -out gray.html -csv gray.csv
//	mcio profile fig7 -tick 0.002
//
// -scale divides every byte quantity (1 = paper-exact sizes, slower);
// -seed drives the availability variance and every fault schedule —
// the same seed reproduces a faulted run byte for byte; -details adds
// per-point aggregator accounting to figure output.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mcio/internal/bench"
	"mcio/internal/collio"
	"mcio/internal/obs"
	"mcio/internal/obs/analyze"
	"mcio/internal/obs/history"
	"mcio/internal/obs/timeline"
)

// observe is the `mcio observe` subcommand: run one figure workload under
// full observability and export the simulated-time trace and the metrics
// snapshot.
//
//	mcio observe fig7 -trace-out trace.json -metrics-out metrics.json
func observe(args []string) error {
	fs := flag.NewFlagSet("observe", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, usage("observe", bench.ViewObserve))
		fs.PrintDefaults()
	}
	scale := fs.Int64("scale", bench.DefaultScale, "scale divisor for byte sizes (1 = paper-exact)")
	seed := fs.Uint64("seed", 42, "seed for the availability variance")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for independent runs; 1 = exact serial legacy path (results are scheduling-invariant either way)")
	mem := fs.Int("mem", 16, "paper-scale mean memory per aggregator, MB")
	opName := fs.String("op", "write", "collective direction: write or read")
	faultRate := fs.Float64("faults", 0, "fault-rate multiplier; > 0 injects seeded faults (crashes, collapses, OST errors) into the run")
	traceOut := fs.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file here")
	metricsOut := fs.String("metrics-out", "", "write a metrics snapshot here (.csv selects CSV, .prom the Prometheus text format, otherwise JSON)")
	flameOut := fs.String("flame-out", "", "write a collapsed-stack flamegraph of the critical path here (flamegraph.pl / inferno / speedscope input)")
	figure, err := onePositional(fs, args, "fig7")
	if err != nil {
		return err
	}
	bench.SetParallelism(*parallel)
	op, err := parseOp(*opName)
	if err != nil {
		return err
	}
	var res *bench.ObserveResult
	switch {
	case *faultRate < 0:
		return fmt.Errorf("negative fault rate %g (want 0 for a clean run, or a positive MTBF multiplier like 1 or 4)", *faultRate)
	case *faultRate > 0:
		if figure != "fig7" {
			return fmt.Errorf("fault injection observes the fig7 workload; drop the %q argument or use fig7", figure)
		}
		res, err = bench.ObserveFaults(*scale, *seed, *mem, op, *faultRate)
	default:
		res, err = bench.Observe(figure, *scale, *seed, *mem, op)
	}
	if err != nil {
		return err
	}
	fmt.Print(res.Summary)
	if *traceOut != "" {
		if err := writeFile(*traceOut, func(f *os.File) error {
			return obs.WriteChromeTrace(f, res.Obs.Trace)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote trace %s\n", *traceOut)
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, res.Obs.Metrics); err != nil {
			return err
		}
		fmt.Printf("wrote metrics %s\n", *metricsOut)
	}
	if *flameOut != "" {
		if err := writeFile(*flameOut, func(f *os.File) error {
			return analyze.WriteFlame(f, res.Runs)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote flamegraph %s\n", *flameOut)
		for i := range res.Runs {
			fmt.Print(res.Runs[i].RenderBlame())
		}
	}
	return nil
}

// runBench is the `mcio bench` subcommand: run one experiment and write
// its run ledger. out is where the ledger goes when -out is empty.
func runBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, usage("bench", bench.ViewLedger))
		fs.PrintDefaults()
	}
	scale := fs.Int64("scale", bench.DefaultScale, "scale divisor for byte sizes (1 = paper-exact)")
	seed := fs.Uint64("seed", 42, "seed for the availability variance and fault schedules")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for independent sweep cells; 1 = exact serial legacy path (ledgers are scheduling-invariant either way)")
	outPath := fs.String("out", "", "write the run ledger JSON here (default: stdout)")
	force := fs.Bool("force", false, "overwrite an existing -out ledger file")
	archive := fs.String("archive", "", "append the record to this history directory under an auto-generated <seq>-<commit>-<exp>.json name")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run here (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write an allocation profile of the run here (go tool pprof)")
	name, err := onePositional(fs, args, "fig6")
	if err != nil {
		return err
	}
	// Refuse to clobber an existing ledger before spending minutes
	// running the experiment.
	if *outPath != "" && !*force {
		if _, err := os.Stat(*outPath); err == nil {
			return fmt.Errorf("refusing to overwrite existing ledger %s (use -force, or -archive to append to a history directory)", *outPath)
		}
	}
	bench.SetParallelism(*parallel)
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
	rec, err := bench.StampedLedger(name, *scale, *seed)
	if err != nil {
		return err
	}
	if *memProfile != "" {
		if err := writeAllocProfile(*memProfile); err != nil {
			return err
		}
	}
	if *outPath == "" && *archive == "" {
		return obs.WriteRunRecord(out, rec)
	}
	if *outPath != "" {
		if err := obs.SaveRunRecord(*outPath, rec); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote ledger %s (%d entries)\n", *outPath, len(rec.Entries))
	}
	if *archive != "" {
		path, err := history.Append(*archive, rec)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "archived ledger %s (%d entries)\n", path, len(rec.Entries))
	}
	return nil
}

// writeAllocProfile writes the heap's allocation profile (every
// allocation since the program started) to path.
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

// runDiff is the `mcio diff` subcommand: compare run ledgers and report
// regressions. Arguments are files, directories or globs; after
// expansion the oldest and newest records by timestamp are compared
// (two explicit files with no timestamps — v1 — keep their given
// order), so `mcio diff baselines/history/` composes directly with the
// archive layout. Returns the process exit code — 0 clean, 1 when the
// new ledger regresses beyond tolerance (with -exact, when any price
// changed) — plus any hard error.
func runDiff(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mcio diff [flags] <old.json new.json | dir | globs...>")
		fs.PrintDefaults()
	}
	tol := fs.Float64("tol", obs.DefaultDiffTol, "relative bandwidth-drop tolerance (0.05 = 5%)")
	wallTol := fs.Float64("wall-tol", 0, "relative wall-time-rise tolerance (default: same as -tol)")
	exact := fs.Bool("exact", false, "gate prices exactly: any changed field of a priced entry, or a priced entry added or missing, is a regression; tolerances apply only to /harness entries")
	paths, err := parseInterleaved(fs, args)
	if err != nil {
		return 2, err
	}
	if len(paths) == 0 {
		return 2, fmt.Errorf("diff wants ledger files, directories or globs")
	}
	recs, err := history.LoadArgs(paths, os.Stderr)
	if err != nil {
		return 2, err
	}
	if len(recs) < 2 {
		return 2, fmt.Errorf("diff needs at least two records, got %d", len(recs))
	}
	oldest, newest := recs[0], recs[len(recs)-1]
	if len(recs) > 2 {
		fmt.Fprintf(out, "diffing oldest vs newest of %d records: %s -> %s\n",
			len(recs), oldest.Path, newest.Path)
	}
	wt := *wallTol
	if wt == 0 {
		wt = *tol
	}
	res := obs.DiffRunRecords(oldest.Rec, newest.Rec, obs.DiffOptions{BandwidthTol: *tol, WallTol: wt, Exact: *exact})
	fmt.Fprint(out, res.Render())
	if len(res.Regressions()) > 0 {
		return 1, nil
	}
	return 0, nil
}

// runTrend is the `mcio trend` subcommand: load a record history and
// classify every tracked series as ok, step or drift. Mirrors `mcio
// diff`'s contract — renders the verdict table and returns exit code 1
// when anything is flagged, 0 clean, 2 on hard errors.
func runTrend(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("trend", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mcio trend [flags] <dir | globs | files...>")
		fs.PrintDefaults()
	}
	tol := fs.Float64("tol", obs.DefaultDiffTol, "relative tolerance for both detectors (0.05 = 5%)")
	window := fs.Int("window", 0, "rolling-median changepoint window (default 5)")
	minRuns := fs.Int("min-runs", 0, "fewest records before the drift detector speaks (default 4)")
	paths, err := parseInterleaved(fs, args)
	if err != nil {
		return 2, err
	}
	// A drift slope needs at least two points; 0 keeps the "use the
	// default" convention the flag documents, anything else below 2 is
	// a usage error (exit 2), not a silent no-op gate.
	if *minRuns != 0 && *minRuns < 2 {
		return 2, fmt.Errorf("-min-runs %d is below 2: a drift slope needs at least two records (omit the flag for the default)", *minRuns)
	}
	if len(paths) == 0 {
		return 2, fmt.Errorf("trend wants a history directory, globs or record files")
	}
	recs, err := history.LoadArgs(paths, os.Stderr)
	if err != nil {
		return 2, err
	}
	res := history.Trend(recs, history.Options{Tol: *tol, Window: *window, MinRuns: *minRuns})
	fmt.Fprint(out, res.Render())
	if len(res.Flagged()) > 0 {
		return 1, nil
	}
	return 0, nil
}

// runReport is the `mcio report` subcommand: render the perf history as
// a self-contained HTML page (inline SVG sparklines, no JS, no external
// assets) — deterministic, so the same history always produces the
// same bytes.
func runReport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mcio report [flags] <dir | globs | files...> -out report.html")
		fs.PrintDefaults()
	}
	outPath := fs.String("out", "report.html", "write the HTML report here")
	tol := fs.Float64("tol", obs.DefaultDiffTol, "relative tolerance for both detectors (0.05 = 5%)")
	window := fs.Int("window", 0, "rolling-median changepoint window (default 5)")
	minRuns := fs.Int("min-runs", 0, "fewest records before the drift detector speaks (default 4)")
	paths, err := parseInterleaved(fs, args)
	if err != nil {
		return err
	}
	if *minRuns != 0 && *minRuns < 2 {
		return fmt.Errorf("-min-runs %d is below 2: a drift slope needs at least two records (omit the flag for the default)", *minRuns)
	}
	if len(paths) == 0 {
		return fmt.Errorf("report wants a history directory, globs or record files")
	}
	recs, err := history.LoadArgs(paths, os.Stderr)
	if err != nil {
		return err
	}
	res := history.Trend(recs, history.Options{Tol: *tol, Window: *window, MinRuns: *minRuns})
	if err := writeFile(*outPath, func(f *os.File) error {
		return history.WriteReport(f, res)
	}); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote report %s (%d records, %d series, %d flagged)\n",
		*outPath, len(res.Records), len(res.Verdicts), len(res.Flagged()))
	return nil
}

// runChaos is the `mcio chaos` subcommand: a seeded chaos campaign
// through the integrity layer — the silent-corruption soak by default,
// the gray-failure campaign with `gray`. Returns the process exit code —
// 0 when every invariant held and nothing went undetected, 1 otherwise.
func runChaos(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, usage("chaos", bench.ViewChaos))
		fs.PrintDefaults()
	}
	seed := fs.Uint64("seed", 1, "campaign seed; the same seed reproduces the campaign byte for byte")
	ops := fs.Int("ops", 50, "randomized collective operations to run")
	rate := fs.Float64("rate", 2, "fault-rate multiplier: silent corruption in the soak, gray faults + corruption in the gray campaign (0 disables injection)")
	repair := fs.Bool("repair", true, "repair detected corruptions (false proves detection of every injection instead)")
	metricsOut := fs.String("metrics-out", "", "write a metrics snapshot here (.csv selects CSV, .prom the Prometheus text format, otherwise JSON)")
	campaign, err := onePositional(fs, args, bench.In(bench.ViewChaos)[0].Name)
	if err != nil {
		return 2, err
	}
	e, err := bench.Lookup(bench.ViewChaos, campaign)
	if err != nil {
		return 2, err
	}
	o := obs.New()
	summary, failed, err := e.Chaos(bench.ChaosConfig{
		Seed: *seed, Ops: *ops, Rate: *rate, Repair: *repair, Obs: o,
	})
	if err != nil {
		return 2, err
	}
	fmt.Fprint(out, summary)
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, o.Metrics); err != nil {
			return 2, err
		}
		fmt.Fprintf(out, "wrote metrics %s\n", *metricsOut)
	}
	if failed {
		return 1, nil
	}
	return 0, nil
}

// runProfile is the `mcio profile` subcommand: run one experiment with
// the sampling timeline recorder attached and write the time-resolved
// report — per-OST/per-NIC/per-node utilization lanes with the fault,
// suspicion, breaker, failover and degradation events overlaid, plus
// the saturation analysis.
func runProfile(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, usage("profile", bench.ViewProfile))
		fs.PrintDefaults()
	}
	scale := fs.Int64("scale", bench.DefaultScale, "scale divisor for byte sizes (1 = paper-exact)")
	seed := fs.Uint64("seed", 42, "seed for the availability variance and fault schedules")
	mem := fs.Int("mem", 16, "paper-scale mean memory per aggregator, MB")
	opName := fs.String("op", "write", "collective direction: write or read")
	tick := fs.Float64("tick", 0, "initial sample tick, simulated seconds (0 = automatic; the recorder coarsens it to stay inside the sample budget)")
	outPath := fs.String("out", "", "write the self-contained HTML timeline report here")
	csvPath := fs.String("csv", "", "write every sample bin and journal event as CSV here")
	name, err := onePositional(fs, args, bench.In(bench.ViewProfile)[0].Name)
	if err != nil {
		return err
	}
	op, err := parseOp(*opName)
	if err != nil {
		return err
	}
	res, err := bench.Profile(name, *scale, *seed, *mem, op, *tick)
	if err != nil {
		return err
	}
	fmt.Fprint(out, res.Summary)
	if *outPath != "" {
		if err := writeFile(*outPath, func(f *os.File) error {
			return timeline.WriteReport(f, res.Rec, res.Sat)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote timeline %s\n", *outPath)
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, func(f *os.File) error {
			return timeline.WriteCSV(f, res.Rec)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote samples %s\n", *csvPath)
	}
	return nil
}

// parseInterleaved parses fs over args accepting flags and positional
// arguments in any order — the stdlib parser stops at the first
// positional, which would reject the documented
// `mcio report <dir> -out report.html` form. Returns the positionals
// in order.
func parseInterleaved(fs *flag.FlagSet, args []string) ([]string, error) {
	var pos []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		args = fs.Args()
		if len(args) == 0 {
			return pos, nil
		}
		pos = append(pos, args[0])
		args = args[1:]
	}
}

// errUsage marks a command line a subcommand refuses; main exits 2 on it.
var errUsage = errors.New("usage")

// onePositional parses fs over args like parseInterleaved and returns
// the one experiment name among them, or def when there is none. More
// than one is refused with errUsage.
func onePositional(fs *flag.FlagSet, args []string, def string) (string, error) {
	pos, err := parseInterleaved(fs, args)
	switch {
	case err != nil:
		return "", err
	case len(pos) == 0:
		return def, nil
	case len(pos) > 1:
		return "", fmt.Errorf("%w: one experiment name at most, got %q", errUsage, pos)
	}
	return pos[0], nil
}

// exitCode is the exit status of a subcommand that failed with err:
// 2 for a refused command line, 1 otherwise.
func exitCode(err error) int {
	if errors.Is(err, errUsage) {
		return 2
	}
	return 1
}

// writeFile creates path, runs write on it, and reports the first error.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// usage renders a subcommand's usage banner from its registry view.
func usage(sub string, v bench.View) string {
	return fmt.Sprintf("usage: mcio %s [%s] [flags]", sub, strings.Join(bench.Names(v), "|"))
}

// parseOp parses the -op flag of observe and profile.
func parseOp(name string) (collio.Op, error) {
	switch name {
	case "write":
		return collio.Write, nil
	case "read":
		return collio.Read, nil
	}
	return 0, fmt.Errorf("unknown op %q (want write or read)", name)
}

// writeMetrics writes a metrics snapshot to path: CSV for a .csv
// suffix, the Prometheus text format for .prom, JSON otherwise.
func writeMetrics(path string, m *obs.Registry) error {
	write := obs.WriteMetricsJSON
	switch {
	case strings.HasSuffix(path, ".csv"):
		write = obs.WriteMetricsCSV
	case strings.HasSuffix(path, ".prom"):
		write = obs.WriteMetricsProm
	}
	return writeFile(path, func(f *os.File) error { return write(f, m) })
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "observe":
			if err := observe(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "mcio observe:", err)
				os.Exit(exitCode(err))
			}
			return
		case "bench":
			if err := runBench(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "mcio bench:", err)
				os.Exit(exitCode(err))
			}
			return
		case "diff":
			code, err := runDiff(os.Args[2:], os.Stdout)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mcio diff:", err)
			}
			os.Exit(code)
		case "trend":
			code, err := runTrend(os.Args[2:], os.Stdout)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mcio trend:", err)
			}
			os.Exit(code)
		case "report":
			if err := runReport(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "mcio report:", err)
				os.Exit(1)
			}
			return
		case "chaos":
			code, err := runChaos(os.Args[2:], os.Stdout)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mcio chaos:", err)
			}
			os.Exit(code)
		case "profile":
			if err := runProfile(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "mcio profile:", err)
				os.Exit(exitCode(err))
			}
			return
		}
	}
	exp := flag.String("exp", bench.All, "experiment: "+strings.Join(bench.Names(bench.ViewRender), ", "))
	scale := flag.Int64("scale", bench.DefaultScale, "scale divisor for byte sizes (1 = paper-exact)")
	seed := flag.Uint64("seed", 42, "seed for the availability variance")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for independent experiments and sweep cells; 1 = exact serial legacy path (results are scheduling-invariant either way)")
	details := flag.Bool("details", false, "print per-point aggregator details for figures")
	jsonPath := flag.String("json", "", "also save figure results as JSON to this path (fig6/fig7/fig8)")
	flag.Parse()
	bench.SetParallelism(*parallel)

	exps := bench.In(bench.ViewRender)
	if *exp != bench.All {
		e, err := bench.Lookup(bench.ViewRender, *exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcio:", err)
			os.Exit(1)
		}
		exps = []*bench.Experiment{e}
	}
	// -json names one file, so it takes exactly one figure's series.
	if *jsonPath != "" && (len(exps) != 1 || exps[0].Figure == nil) {
		var figures []string
		for _, e := range bench.In(bench.ViewRender) {
			if e.Figure != nil {
				figures = append(figures, e.Name)
			}
		}
		fmt.Fprintf(os.Stderr, "mcio: -json needs -exp to name one figure (%s), not %q\n", strings.Join(figures, ", "), *exp)
		os.Exit(2)
	}
	a := bench.Args{Scale: *scale, Seed: *seed, Details: *details, JSONPath: *jsonPath}
	// Experiments render into a writer, not straight to stdout, so `-exp
	// all` can fan whole experiments across the worker pool and still
	// print them in the fixed order — byte-identical to the serial run.
	outs := make([]string, len(exps))
	errs := make([]error, len(exps))
	bench.ForEach(len(exps), func(i int) error {
		var b strings.Builder
		errs[i] = exps[i].Render(exps[i], &b, a)
		outs[i] = b.String()
		return errs[i]
	})
	for i := range exps {
		// Output computed before the first error still prints, as in the
		// serial run; the first error (by experiment order) then exits.
		os.Stdout.WriteString(outs[i])
		if errs[i] != nil {
			fmt.Fprintln(os.Stderr, "mcio:", errs[i])
			os.Exit(1)
		}
	}
}
