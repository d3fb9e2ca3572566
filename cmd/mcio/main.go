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
//	mcio -exp all                   # everything above
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
// ledgers, exiting non-zero when the new one regresses beyond tolerance
// (the CI perf gate). diff accepts directories and globs, comparing the
// oldest record against the newest by timestamp; bench refuses to
// overwrite an existing -out file unless -force is given, and -archive
// appends the record to a history directory under an auto-sequenced
// name; -cpuprofile and -memprofile write pprof profiles of the run:
//
//	mcio bench fig6 -out BENCH_fig6.json
//	mcio bench chaos -archive baselines/history
//	mcio bench fig-exa -cpuprofile cpu.out -memprofile mem.out
//	mcio diff baselines/BENCH_fig6.json BENCH_fig6.json -tol 0.05
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
//	mcio chaos -gray -seed 1 -ops 10
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
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"mcio/internal/bench"
	"mcio/internal/cliutil"
	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/obs"
	"mcio/internal/obs/analyze"
	"mcio/internal/obs/history"
	"mcio/internal/obs/timeline"
	"mcio/internal/pfs"
	"mcio/internal/twophase"
)

// observe is the `mcio observe` subcommand: run one figure workload under
// full observability and export the simulated-time trace and the metrics
// snapshot.
//
//	mcio observe fig7 -trace-out trace.json -metrics-out metrics.json
func observe(args []string) error {
	fs := flag.NewFlagSet("observe", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, cliutil.ChoiceUsage("mcio", "observe", bench.ObserveFigures))
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
	figure := "fig7"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		figure = args[0]
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	bench.SetParallelism(*parallel)
	var op collio.Op
	switch *opName {
	case "write":
		op = collio.Write
	case "read":
		op = collio.Read
	default:
		return fmt.Errorf("unknown op %q (want write or read)", *opName)
	}
	var res *bench.ObserveResult
	var err error
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
		write := func(f *os.File) error { return obs.WriteMetricsJSON(f, res.Obs.Metrics) }
		switch {
		case strings.HasSuffix(*metricsOut, ".csv"):
			write = func(f *os.File) error { return obs.WriteMetricsCSV(f, res.Obs.Metrics) }
		case strings.HasSuffix(*metricsOut, ".prom"):
			write = func(f *os.File) error { return obs.WriteMetricsProm(f, res.Obs.Metrics) }
		}
		if err := writeFile(*metricsOut, write); err != nil {
			return err
		}
		fmt.Printf("wrote metrics %s\n", *metricsOut)
	}
	if *flameOut != "" {
		a := analyze.Analyze(res.Obs.Trace)
		if err := writeFile(*flameOut, func(f *os.File) error {
			return analyze.WriteFlame(f, a)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote flamegraph %s\n", *flameOut)
		for _, p := range a.Processes {
			fmt.Print(p.RenderBlame())
		}
	}
	return nil
}

// runBench is the `mcio bench` subcommand: run one experiment and write
// its run ledger. out is where the ledger goes when -out is empty.
func runBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, cliutil.ChoiceUsage("mcio", "bench", bench.LedgerExperiments))
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
	name := "fig6"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name = args[0]
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
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
// new ledger regresses beyond tolerance — plus any hard error.
func runDiff(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mcio diff [flags] <old.json new.json | dir | globs...>")
		fs.PrintDefaults()
	}
	tol := fs.Float64("tol", obs.DefaultDiffTol, "relative bandwidth-drop tolerance (0.05 = 5%)")
	wallTol := fs.Float64("wall-tol", 0, "relative wall-time-rise tolerance (default: same as -tol)")
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
	res := obs.DiffRunRecords(oldest.Rec, newest.Rec, obs.DiffOptions{BandwidthTol: *tol, WallTol: wt})
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
// the gray-failure campaign with `gray` (or -gray). Campaign names come
// from bench.ChaosCampaigns, the same single-source pattern bench and
// observe use, so new campaigns appear in the usage and error text
// automatically. Returns the process exit code — 0 when every invariant
// held and nothing went undetected, 1 otherwise.
func runChaos(args []string, out io.Writer) (int, error) {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, cliutil.ChoiceUsage("mcio", "chaos", bench.ChaosCampaigns))
		fs.PrintDefaults()
	}
	seed := fs.Uint64("seed", 1, "campaign seed; the same seed reproduces the campaign byte for byte")
	ops := fs.Int("ops", 50, "randomized collective operations to run")
	rate := fs.Float64("rate", 2, "fault-rate multiplier: silent corruption in the soak, gray faults + corruption in -gray (0 disables injection)")
	repair := fs.Bool("repair", true, "repair detected corruptions (false proves detection of every injection instead)")
	gray := fs.Bool("gray", false, "run the gray-failure campaign (suspicion, adaptive failover, hedging); same as the `gray` campaign argument")
	metricsOut := fs.String("metrics-out", "", "write a metrics snapshot here (.csv selects CSV, .prom the Prometheus text format, otherwise JSON)")
	campaign := bench.ChaosCampaigns[0]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		campaign = args[0]
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if *gray {
		campaign = "gray"
	}
	o := obs.New()
	var (
		summary    string
		violations int
		undetected int
		err        error
	)
	switch campaign {
	case "corruption":
		var rep *bench.ChaosReport
		rep, err = bench.Chaos(bench.ChaosConfig{
			Seed: *seed, Ops: *ops, Rate: *rate, Repair: *repair, Obs: o,
		})
		if err == nil {
			summary, violations, undetected = rep.String(), len(rep.Violations), rep.Undetected()
		}
	case "gray":
		var rep *bench.GrayReport
		rep, err = bench.Gray(bench.GrayConfig{
			Seed: *seed, Ops: *ops, Rate: *rate, Repair: *repair, Obs: o,
		})
		if err == nil {
			summary, violations, undetected = rep.String(), len(rep.Violations), rep.Undetected()
		}
	default:
		return 2, cliutil.UnknownChoice("chaos campaign", campaign, bench.ChaosCampaigns)
	}
	if err != nil {
		return 2, err
	}
	fmt.Fprint(out, summary)
	if *metricsOut != "" {
		write := func(f *os.File) error { return obs.WriteMetricsJSON(f, o.Metrics) }
		switch {
		case strings.HasSuffix(*metricsOut, ".csv"):
			write = func(f *os.File) error { return obs.WriteMetricsCSV(f, o.Metrics) }
		case strings.HasSuffix(*metricsOut, ".prom"):
			write = func(f *os.File) error { return obs.WriteMetricsProm(f, o.Metrics) }
		}
		if err := writeFile(*metricsOut, write); err != nil {
			return 2, err
		}
		fmt.Fprintf(out, "wrote metrics %s\n", *metricsOut)
	}
	if violations > 0 || undetected > 0 {
		return 1, nil
	}
	return 0, nil
}

// runProfile is the `mcio profile` subcommand: run one experiment with
// the sampling timeline recorder attached and write the time-resolved
// report — per-OST/per-NIC/per-node utilization lanes with the fault,
// suspicion, breaker, failover and degradation events overlaid, plus
// the saturation analysis. Experiment names come from
// bench.ProfileExperiments, the same single-source pattern the other
// subcommands use.
func runProfile(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, cliutil.ChoiceUsage("mcio", "profile", bench.ProfileExperiments))
		fs.PrintDefaults()
	}
	scale := fs.Int64("scale", bench.DefaultScale, "scale divisor for byte sizes (1 = paper-exact)")
	seed := fs.Uint64("seed", 42, "seed for the availability variance and fault schedules")
	mem := fs.Int("mem", 16, "paper-scale mean memory per aggregator, MB")
	opName := fs.String("op", "write", "collective direction: write or read")
	tick := fs.Float64("tick", 0, "initial sample tick, simulated seconds (0 = automatic; the recorder coarsens it to stay inside the sample budget)")
	outPath := fs.String("out", "", "write the self-contained HTML timeline report here")
	csvPath := fs.String("csv", "", "write every sample bin and journal event as CSV here")
	name := bench.ProfileExperiments[0]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name = args[0]
		args = args[1:]
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	var op collio.Op
	switch *opName {
	case "write":
		op = collio.Write
	case "read":
		op = collio.Read
	default:
		return fmt.Errorf("unknown op %q (want write or read)", *opName)
	}
	valid := false
	for _, e := range bench.ProfileExperiments {
		if name == e {
			valid = true
			break
		}
	}
	if !valid {
		return cliutil.UnknownChoice("profile experiment", name, bench.ProfileExperiments)
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

// allExperiments lists every -exp value, in the order `-exp all` runs
// them — the single source of truth for the -exp usage text and the
// unknown-experiment error.
var allExperiments = []string{
	"table1", "fig2", "fig4", "fig5", "fig6", "fig7", "fig8",
	"motivation", "comparison", "random", "plan", "scaling",
	"trajectory", "blame", "trace", "tune", "ablation", "faults",
}

// expChoices is allExperiments plus the "all" meta-experiment — the
// value list the -exp usage text and unknown-experiment error share.
func expChoices() []string {
	return append(append([]string(nil), allExperiments...), "all")
}

// expUsage renders the -exp flag's usage text from allExperiments.
func expUsage() string {
	return cliutil.ChoiceFlagUsage("experiment", expChoices())
}

// unknownExpErr renders the unknown-experiment error from the same list.
func unknownExpErr(name string) error {
	return cliutil.UnknownChoice("experiment", name, expChoices())
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "observe":
			if err := observe(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "mcio observe:", err)
				os.Exit(1)
			}
			return
		case "bench":
			if err := runBench(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "mcio bench:", err)
				os.Exit(1)
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
				os.Exit(1)
			}
			return
		}
	}
	exp := flag.String("exp", "all", expUsage())
	scale := flag.Int64("scale", bench.DefaultScale, "scale divisor for byte sizes (1 = paper-exact)")
	seed := flag.Uint64("seed", 42, "seed for the availability variance")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for independent experiments and sweep cells; 1 = exact serial legacy path (results are scheduling-invariant either way)")
	details := flag.Bool("details", false, "print per-point aggregator details for figures")
	jsonPath := flag.String("json", "", "also save figure results as JSON to this path (fig6/fig7/fig8)")
	flag.Parse()
	bench.SetParallelism(*parallel)

	// Experiments render into a writer, not straight to stdout, so `-exp
	// all` can fan whole experiments across the worker pool and still
	// print them in the fixed order — byte-identical to the serial run.
	run := func(name string, w io.Writer) error {
		switch name {
		case "table1":
			fmt.Fprintln(w, "Table 1: potential exascale design vs 2010 HPC design")
			fmt.Fprintln(w, machine.RenderTable1())
		case "fig2":
			return fig2(w)
		case "fig4":
			return fig4(w)
		case "fig5":
			return fig5(w)
		case "fig6", "fig7", "fig8":
			runner := map[string]func(int64, uint64) (*bench.Series, error){
				"fig6": bench.Fig6, "fig7": bench.Fig7, "fig8": bench.Fig8,
			}[name]
			s, err := runner(*scale, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, bench.Render(s))
			if *details {
				fmt.Fprintln(w, bench.RenderDetails(s))
			}
			if *jsonPath != "" {
				if err := s.SaveJSON(*jsonPath); err != nil {
					return err
				}
				fmt.Fprintf(w, "saved %s\n", *jsonPath)
			}
		case "random":
			t, err := bench.RandomVsInterleaved(*scale, *seed, 16)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, t.Render())
		case "plan":
			return describePlans(w, *scale, *seed)
		case "trajectory":
			t, err := bench.Trajectory(*scale, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, t.Render())
		case "blame":
			t, err := bench.TrajectoryBlame(*scale, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, t.Render())
		case "trace":
			out, err := bench.RoundTrace(*scale, *seed, 8)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, out)
		case "comparison":
			t, err := bench.StrategyComparison(*scale, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, t.Render())
		case "scaling":
			t, err := bench.ScalingSweep(*scale, *seed, 16)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, t.Render())
		case "tune":
			return tune(w, *scale, *seed)
		case "motivation":
			t, err := bench.Motivation(*scale, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, t.Render())
		case "ablation":
			for _, a := range []func(int64, uint64) (*bench.Table, error){
				bench.AblationGrouping,
				bench.AblationNah,
				bench.AblationSigma,
				bench.AblationOverlap,
				bench.AblationAggsPerNode,
			} {
				t, err := a(*scale, *seed)
				if err != nil {
					return err
				}
				fmt.Fprintln(w, t.Render())
			}
		case "faults":
			t, err := bench.FaultSweep(*scale, *seed)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, t.Render())
		default:
			return unknownExpErr(name)
		}
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = allExperiments
	}
	outs := make([]string, len(names))
	errs := make([]error, len(names))
	bench.ForEach(len(names), func(i int) error {
		var b strings.Builder
		errs[i] = run(names[i], &b)
		outs[i] = b.String()
		return errs[i]
	})
	for i := range names {
		// Output computed before the first error still prints, as in the
		// serial run; the first error (by experiment order) then exits.
		os.Stdout.WriteString(outs[i])
		if errs[i] != nil {
			fmt.Fprintln(os.Stderr, "mcio:", errs[i])
			os.Exit(1)
		}
	}
}

// fig2 reproduces the paper's Figure 2 as a trace: six processes, two
// aggregators, classic two-phase collective read.
func fig2(w io.Writer) error {
	fmt.Fprintln(w, "Figure 2: two-phase collective I/O (6 processes, 2 aggregator nodes)")
	topo, err := mpi.BlockTopology(6, 3)
	if err != nil {
		return err
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	ctx := &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   []int64{mc.MemPerNode, mc.MemPerNode},
		FS:      pfs.DefaultConfig(4),
		Params:  collio.DefaultParams(256),
	}
	var reqs []collio.RankRequest
	for r := 0; r < 6; r++ {
		reqs = append(reqs, collio.RankRequest{
			Rank:    r,
			Extents: []pfs.Extent{{Offset: int64(r) * 512, Length: 512}},
		})
	}
	plan, err := twophase.New().Plan(ctx, reqs)
	if err != nil {
		return err
	}
	for i, d := range plan.Domains {
		fmt.Fprintf(w, "  file domain %d: bytes %d..%d -> aggregator rank %d on node %d\n",
			i, d.Extents[0].Offset, d.Extents[len(d.Extents)-1].End(), d.Aggregator, d.AggNode)
	}
	fmt.Fprintln(w, "  phase 1 (I/O): each aggregator reads its file domain in buffer-sized rounds")
	fmt.Fprintln(w, "  phase 2 (communication): aggregators scatter the data to the requesting processes")
	fmt.Fprintln(w)
	return nil
}

// fig4 reproduces the paper's Figure 4: aggregation-group division across
// nine processes on three compute nodes with a serial data distribution.
func fig4(w io.Writer) error {
	fmt.Fprintln(w, "Figure 4: aggregation group division (9 processes, 3 nodes, serial distribution)")
	topo, err := mpi.BlockTopology(9, 3)
	if err != nil {
		return err
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	params := collio.DefaultParams(100)
	params.MsgGroup = 800 // the tentative boundary lands mid-node and is extended
	ctx := &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   []int64{mc.MemPerNode, mc.MemPerNode, mc.MemPerNode},
		FS:      pfs.DefaultConfig(4),
		Params:  params,
	}
	var reqs []collio.RankRequest
	for r := 0; r < 9; r++ {
		reqs = append(reqs, collio.RankRequest{
			Rank:    r,
			Extents: []pfs.Extent{{Offset: int64(r) * 300, Length: 300}},
		})
	}
	for _, g := range core.DivideGroups(ctx, reqs) {
		ranks := make([]string, len(g.Ranks))
		for i, r := range g.Ranks {
			ranks[i] = fmt.Sprintf("P%d", r)
		}
		fmt.Fprintf(w, "  group %d: file [%d..%d) members %s (node boundary respected)\n",
			g.Index, g.Region.Offset, g.Region.End(), strings.Join(ranks, " "))
	}
	fmt.Fprintln(w)
	return nil
}

// fig5 demonstrates the two partition-tree remerge cases of Figures 5a/5b.
func fig5(w io.Writer) error {
	fmt.Fprintln(w, "Figure 5: file-domain remerge on the binary partition tree")
	show := func(t *core.PartitionTree) {
		for i, l := range t.Leaves() {
			fmt.Fprintf(w, "    leaf %d: [%d..%d) %d bytes\n",
				i, l.Extents[0].Offset, l.Extents[len(l.Extents)-1].End(), l.Bytes)
		}
	}
	// Case 5a: sibling is a leaf.
	t5a, err := core.BuildTree([]pfs.Extent{{Offset: 0, Length: 200}}, 100)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "  case 5a — before (sibling is a leaf):")
	show(t5a)
	if _, err := t5a.Remerge(t5a.Root.Left); err != nil {
		return err
	}
	fmt.Fprintln(w, "  after removing the left leaf, its sibling takes over directly:")
	show(t5a)

	// Case 5b: sibling is an internal vertex; DFS finds the adjacent leaf.
	t5b, err := core.BuildTree([]pfs.Extent{{Offset: 0, Length: 400}}, 100)
	if err != nil {
		return err
	}
	if _, err := t5b.Remerge(t5b.Root.Left.Left); err != nil {
		return err
	}
	fmt.Fprintln(w, "  case 5b — before (left leaf's sibling subtree was further split):")
	show(t5b)
	if _, err := t5b.Remerge(t5b.Root.Left); err != nil {
		return err
	}
	fmt.Fprintln(w, "  after removal, the DFS-adjacent leaf of the sibling subtree absorbs it:")
	show(t5b)
	fmt.Fprintln(w)
	return nil
}

// tune runs the parameter auto-tuner (the paper's deferred "optimal
// values" study) on the Figure 7 workload and prints the search table.
func tune(w io.Writer, scale int64, seed uint64) error {
	cfg := bench.Fig7Config(scale, seed)
	cfg.MemMB = []int{16}
	wl, name := bench.Fig7Workload(cfg)
	res, err := bench.TuneWorkload(cfg, wl)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "parameter auto-tuning on %s\n", name)
	fmt.Fprintln(w, res.Render(8))
	return nil
}

// describePlans prints both strategies' placement decisions for the
// Figure 7 workload at 8 MB — the "where did my aggregators go" view.
func describePlans(w io.Writer, scale int64, seed uint64) error {
	cfg := bench.Fig7Config(scale, seed)
	cfg.MemMB = []int{8}
	plans, topo, err := bench.PlansAt(cfg, 8)
	if err != nil {
		return err
	}
	for _, p := range plans {
		fmt.Fprintln(w, p.Describe(topo))
	}
	return nil
}
