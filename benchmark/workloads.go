package main

import (
	"errors"
	"fmt"
	"io"
	"strconv"

	"mcio/internal/bench"
	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/fastsim"
	"mcio/internal/faults"
	"mcio/internal/mpi"
	"mcio/internal/obs"
	"mcio/internal/obs/analyze"
	"mcio/internal/sim"
	"mcio/internal/twophase"
)

// workload is one named input set. A pass prices every cell of it once,
// as `mcio bench` would, and returns the run ledger.
type workload struct {
	name string
	// config builds the experiment's platform; gen its access pattern.
	config func(scale int64, seed uint64) bench.Config
	gen    func(cfg bench.Config) (bench.Workload, error)
	// prefix starts every ledger entry name, as in the committed ledgers.
	prefix string
	// faultCells, when set, makes this a faulted workload: write cells
	// priced under these schedules after a clean reference per strategy.
	// Otherwise it is a sweep over (memory × strategy × op).
	faultCells []faultCell
	// refEntries records the clean references as ledger entries.
	refEntries bool
	// seeds, when set, maps a run seed to the seeds one pass prices, each
	// a platform of its own. A workload whose cost depends on the seed's
	// draw covers several, so a run measures the workload rather than one
	// draw. Nil prices the run seed alone.
	seeds func(seed uint64) []uint64
	// public runs one pass through the workload's public entry point. Nil
	// when there is none; the untimed pipeline is then the entry point.
	public func(w *workload, cfg bench.Config) (*obs.RunRecord, error)
}

// faultCell is one fault schedule, given the strategy's clean run time.
type faultCell struct {
	name string
	spec func(seed uint64, horizon float64, nodes int) faults.Spec
}

var strategyNames = []string{"two-phase", "memory-conscious"}

// workloads is the benchmark's workload set. Each stresses a different
// layer, so a lever aimed at one layer has a workload where it should
// move the end-to-end numbers and one where it should not.
var workloads = []*workload{
	{
		name:   "collperf-120",
		config: bench.Fig6Config,
		gen: func(cfg bench.Config) (bench.Workload, error) {
			wl, _, err := bench.Fig6Workload(cfg)
			return wl, err
		},
		public: sweepPass,
	},
	{
		name:   "ior-1080",
		config: bench.Fig8Config,
		gen: func(cfg bench.Config) (bench.Workload, error) {
			wl, _ := bench.Fig8Workload(cfg)
			return wl, nil
		},
		// Three availability draws per pass, none shared between run seeds.
		seeds: func(seed uint64) []uint64 {
			return []uint64{3 * seed, 3*seed + 1, 3*seed + 2}
		},
		public: sweepPass,
	},
	{
		name: "exa-ior-1m",
		config: func(scale int64, seed uint64) bench.Config {
			cfg := bench.FigExaConfig(scale, seed)
			cfg.MemMB = []int{8}
			return cfg
		},
		gen:    figExaWorkload,
		prefix: "fig-exa/",
		public: sweepPass,
	},
	{
		name:       "exa-faults-1m",
		config:     bench.FigExaFaultsConfig,
		gen:        figExaWorkload,
		prefix:     "fig-exa-faults/",
		refEntries: true,
		faultCells: []faultCell{{
			name: "crash=8,strag=0.25,sev=0.9",
			spec: func(seed uint64, horizon float64, nodes int) faults.Spec {
				return exaFaultSpec(seed, horizon, nodes, 8, 0.25, 0.9)
			},
		}},
	},
	{
		name: "faults-120",
		config: func(scale int64, seed uint64) bench.Config {
			cfg := bench.Fig7Config(scale, seed)
			cfg.Name = "faults"
			cfg.MemMB = []int{16}
			return cfg
		},
		gen: func(cfg bench.Config) (bench.Workload, error) {
			wl, _ := bench.Fig7Workload(cfg)
			return wl, nil
		},
		faultCells: rateCells(0, 0.5, 1, 2, 4),
		seeds: func(seed uint64) []uint64 {
			return scheduleWindows[seed%uint64(len(scheduleWindows))]
		},
		public: func(_ *workload, cfg bench.Config) (*obs.RunRecord, error) {
			return bench.Ledger("faults", cfg.Scale, cfg.Seed)
		},
	},
}

// scheduleWindows are faults-120's schedules: seeds 0 to 82 without 1,
// 13 and 72, which `mcio bench faults` refused when the benchmark was
// defined (on its ten-node machine those schedules crash every host at
// rate 4). One schedule costs between 0.05 and 0.1 s of CPU, so they are
// grouped by their measured cost: when the benchmark was defined every
// window's pass took the same CPU time within 1.3% and allocated the same
// heap within 0.2%. Run seeds thus differ in the schedules they price, not
// in how much work a pass does. The windows are fixed, so a run seed
// prices the same schedules on every commit, and a schedule the program
// comes to refuse counts as failed cells instead of being replaced.
var scheduleWindows = [][]uint64{
	{0, 6, 27, 35, 59, 62, 71, 78},
	{2, 5, 25, 33, 42, 53, 60, 68},
	{3, 7, 34, 38, 49, 55, 57, 63},
	{4, 9, 11, 15, 20, 41, 52, 79},
	{8, 19, 21, 32, 39, 54, 73, 77},
	{10, 26, 40, 47, 48, 51, 58, 61},
	{12, 14, 23, 31, 66, 67, 69, 70},
	{16, 22, 24, 44, 50, 64, 65, 80},
	{17, 28, 29, 30, 37, 43, 74, 81},
	{18, 36, 45, 46, 56, 75, 76, 82},
}

// configs returns the platforms a run at seed prices.
func (w *workload) configs(scale int64, seed uint64) []bench.Config {
	if w.seeds == nil {
		return []bench.Config{w.config(scale, seed)}
	}
	var cfgs []bench.Config
	for _, s := range w.seeds(seed) {
		cfgs = append(cfgs, w.config(scale, s))
	}
	return cfgs
}

// cells is how many cells a pass over one platform prices.
func (w *workload) cells(cfg bench.Config) int {
	if w.faultCells == nil {
		return 4 * len(cfg.MemMB)
	}
	n := 2 * len(w.faultCells)
	if w.refEntries {
		n += 2
	}
	return n
}

// runPass prices one pass over every platform of a run and returns the
// ledger entries in order. A platform whose pass fails adds its cells to
// failed and its error to err; the other platforms are still priced.
func (w *workload) runPass(cfgs []bench.Config, tr *tracer) (entries []obs.RunEntry, failed int, err error) {
	var errs []error
	for _, cfg := range cfgs {
		end := tr.cell(fmt.Sprintf("seed=%d", cfg.Seed))
		rec, err := w.pass(cfg, tr)
		end()
		if err != nil {
			failed += w.cells(cfg)
			errs = append(errs, fmt.Errorf("seed %d: %w", cfg.Seed, err))
			continue
		}
		entries = append(entries, rec.Entries...)
	}
	return entries, failed, errors.Join(errs...)
}

func figExaWorkload(cfg bench.Config) (bench.Workload, error) {
	wl, _ := bench.FigExaWorkload(cfg)
	return wl, nil
}

// rateCells are the resilience sweep's cells: the default fault
// environment with every rate scaled.
func rateCells(rates ...float64) []faultCell {
	cells := make([]faultCell, len(rates))
	for i, rate := range rates {
		cells[i] = faultCell{
			name: fmt.Sprintf("rate=%g", rate),
			spec: func(seed uint64, horizon float64, _ int) faults.Spec {
				return faults.DefaultSpec(seed, horizon).WithRate(rate)
			},
		}
	}
	return cells
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// sweepPass runs bench.RunSweep and converts its points as bench.Ledger
// does for its sweeps.
func sweepPass(w *workload, cfg bench.Config) (*obs.RunRecord, error) {
	wl, err := w.gen(cfg)
	if err != nil {
		return nil, err
	}
	series, err := bench.RunSweep(cfg, wl, w.name)
	if err != nil {
		return nil, err
	}
	rec := newRecord(cfg)
	for _, p := range series.Points {
		rec.Entries = append(rec.Entries, sweepEntry(w.prefix, p.Strategy, p.Op, p.MemMB, p.Result, cfg.Overlap))
	}
	return rec, nil
}

func newRecord(cfg bench.Config) *obs.RunRecord {
	return &obs.RunRecord{Name: cfg.Name, Params: map[string]string{
		"scale": strconv.FormatInt(cfg.Scale, 10),
		"seed":  strconv.FormatUint(cfg.Seed, 10),
	}}
}

// pass prices every cell of the workload once and encodes the ledger.
// Untraced, it goes through the public entry point when there is one.
func (w *workload) pass(cfg bench.Config, tr *tracer) (*obs.RunRecord, error) {
	var rec *obs.RunRecord
	var err error
	switch {
	case tr == nil && w.public != nil:
		rec, err = w.public(w, cfg)
	case w.faultCells != nil:
		rec, err = w.faultPipeline(cfg, tr)
	default:
		rec, err = w.sweepPipeline(cfg, tr)
	}
	if err != nil {
		return nil, err
	}
	err = tr.call(trackPass, "obs.encode", func() error { return obs.WriteRunRecord(io.Discard, rec) })
	return rec, err
}

// setup makes the public calls that build a pass's inputs before any
// planning: the workload, its requests and the rank topology. The rest of
// the planning context is bench's unexported Config.context, which no
// public call reaches, so set-up time leaves it out.
func (w *workload) setup(cfg bench.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	wl, err := w.gen(cfg)
	if err != nil {
		return err
	}
	if _, err := wl.Requests(); err != nil {
		return err
	}
	_, err = mpi.BlockTopology(cfg.Ranks, cfg.RanksPerNode)
	return err
}

// inputs generates the requests and the platform, the first steps of
// every pass.
func (w *workload) inputs(cfg bench.Config, tr *tracer) (bench.Workload, []collio.RankRequest, *platform, error) {
	wl, err := w.gen(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var reqs []collio.RankRequest
	err = tr.call(trackPass, "workload.requests", func() (err error) {
		reqs, err = wl.Requests()
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	if tr != nil {
		extents := 0
		for _, r := range reqs {
			extents += len(r.Extents)
		}
		tr.count("workload.extents", float64(extents))
	}
	var plat *platform
	err = tr.call(trackPass, "bench.context", func() (err error) {
		plat, err = newPlatform(cfg)
		return err
	})
	return wl, reqs, plat, err
}

func (w *workload) context(tr *tracer, plat *platform, memMB int, total int64) (*collio.Context, error) {
	var ctx *collio.Context
	err := tr.call(trackPass, "bench.context", func() (err error) {
		ctx, err = plat.context(memMB, total)
		return err
	})
	return ctx, err
}

// sweepPipeline is bench.RunSweep followed by bench.Ledger's entry
// conversion, call for call, with every layer call traced.
func (w *workload) sweepPipeline(cfg bench.Config, tr *tracer) (*obs.RunRecord, error) {
	wl, reqs, plat, err := w.inputs(cfg, tr)
	if err != nil {
		return nil, err
	}
	opt := plat.options()
	fast := cfg.Engine == bench.EngineFast
	engine := "collio"
	if fast {
		engine = "fastsim"
	}
	type point struct {
		strategy, op string
		memMB        int
		res          *collio.CostResult
	}
	var points []point
	for _, memMB := range cfg.MemMB {
		for _, s := range []collio.Strategy{twophase.New(), core.New()} {
			end := tr.cell(fmt.Sprintf("%s/mem=%d", s.Name(), memMB))
			ctx, err := w.context(tr, plat, memMB, wl.TotalBytes())
			if err != nil {
				return nil, err
			}
			var plan *collio.Plan
			err = tr.call(trackPass, "collio.cached_plan", func() (err error) {
				plan, err = collio.CachedPlan(s, ctx, reqs)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("bench %s: %s at %d MB: %w", cfg.Name, s.Name(), memMB, err)
			}
			if err := tr.diag(func() error { return planDiagnostics(tr, s, ctx, reqs, plan) }); err != nil {
				return nil, err
			}
			countPlan(tr, s.Name(), plan)
			price := func(op collio.Op) (*collio.CostResult, error) {
				return collio.Cost(ctx, plan, reqs, op, opt)
			}
			if fast {
				var fs *fastsim.Sim
				err := tr.call(trackPass, "collio.build_shape", func() (err error) {
					fs, err = fastsim.New(ctx, plan, reqs)
					return err
				})
				if err != nil {
					return nil, err
				}
				tr.count("collio.meta_messages", float64(fs.Shape().MetaMessages))
				price = func(op collio.Op) (*collio.CostResult, error) { return fs.Cost(op, opt) }
			}
			for _, op := range []collio.Op{collio.Write, collio.Read} {
				endOp := tr.cell(op.String())
				var res *collio.CostResult
				err := tr.call(trackPass, engine+".cost_"+op.String(), func() (err error) {
					res, err = price(op)
					return err
				})
				endOp()
				if err != nil {
					return nil, err
				}
				countTotals(tr, res.Totals)
				points = append(points, point{s.Name(), op.String(), memMB, res})
			}
			end()
		}
	}
	rec := newRecord(cfg)
	for _, p := range points {
		var e obs.RunEntry
		tr.call(trackPass, "analyze.blame", func() error {
			e = sweepEntry(w.prefix, p.strategy, p.op, p.memMB, p.res, cfg.Overlap)
			return nil
		})
		rec.Entries = append(rec.Entries, e)
	}
	return rec, nil
}

// planDiagnostics re-runs the components of a CachedPlan miss on the
// diagnostic track: group division (memory-conscious only), planning,
// validation, and a cache hit, which costs the cache key alone.
func planDiagnostics(tr *tracer, s collio.Strategy, ctx *collio.Context, reqs []collio.RankRequest, want *collio.Plan) error {
	if s.Name() == "memory-conscious" {
		if err := divideGroups(tr, ctx, reqs, want); err != nil {
			return err
		}
	}
	var plan *collio.Plan
	err := tr.call(trackDiag, planLayer(s.Name()), func() (err error) {
		plan, err = s.Plan(ctx, reqs)
		return err
	})
	if err != nil {
		return err
	}
	if err := tr.call(trackDiag, "collio.validate", func() error { return plan.Validate(reqs) }); err != nil {
		return err
	}
	return tr.call(trackDiag, "collio.plan_cache", func() (err error) {
		_, err = collio.CachedPlan(s, ctx, reqs)
		return err
	})
}

// divideGroups re-runs the memory-conscious planner's group division on
// the input it sees, and checks that it finds the plan's group count.
func divideGroups(tr *tracer, ctx *collio.Context, reqs []collio.RankRequest, want *collio.Plan) error {
	eff := *ctx
	eff.Params = capacityParams(ctx, reqs)
	var groups []core.Group
	tr.call(trackDiag, "core.divide_groups", func() error {
		groups = core.DivideGroups(&eff, reqs)
		return nil
	})
	if len(groups) != want.Groups {
		return fmt.Errorf("diagnostic DivideGroups found %d groups, the plan has %d", len(groups), want.Groups)
	}
	tr.count("core.groups", float64(len(groups)))
	return nil
}

func planLayer(strategy string) string {
	if strategy == "memory-conscious" {
		return "core.plan"
	}
	return "twophase.plan"
}

func countPlan(tr *tracer, strategy string, plan *collio.Plan) {
	if strategy != "memory-conscious" {
		return
	}
	tr.count("core.domains", float64(len(plan.Domains)))
	for _, d := range plan.Domains {
		if d.PagedSeverity > 0 {
			tr.count("core.paged_aggregators", 1)
		}
	}
}

func countTotals(tr *tracer, t sim.Totals) {
	tr.count("sim.rounds", float64(t.Rounds))
	tr.count("sim.requests", float64(t.Requests))
	tr.count("sim.recovery_rounds", float64(t.RecoveryRounds))
}

// faultPipeline is the fault sweeps' sequence — a clean reference per
// strategy, then every cell per strategy — with bench.Ledger's entry
// conversion, every layer call traced.
func (w *workload) faultPipeline(cfg bench.Config, tr *tracer) (*obs.RunRecord, error) {
	wl, reqs, plat, err := w.inputs(cfg, tr)
	if err != nil {
		return nil, err
	}
	opt := plat.options()
	ctx, err := w.context(tr, plat, cfg.MemMB[0], wl.TotalBytes())
	if err != nil {
		return nil, err
	}
	fast := cfg.Engine == bench.EngineFast
	type point struct {
		name string
		res  *collio.FaultResult
	}
	var points []point
	// Every memory-conscious run plans the same inputs, so one diagnostic
	// group division serves them all.
	divided := false
	run := func(strategy string, spec faults.Spec) (*collio.FaultResult, error) {
		divide := !divided && strategy == "memory-conscious"
		divided = divided || divide
		return faultedRun(tr, ctx, reqs, strategy, opt, spec, fast, divide)
	}
	refs := make([]float64, len(strategyNames))
	for si, strategy := range strategyNames {
		end := tr.cell("ref/" + strategy)
		res, err := run(strategy, faults.DefaultSpec(cfg.Seed, 1).WithRate(0))
		end()
		if err != nil {
			return nil, err
		}
		refs[si] = res.Seconds
		if w.refEntries {
			points = append(points, point{"ref/" + strategy, res})
		}
	}
	for _, c := range w.faultCells {
		for si, strategy := range strategyNames {
			name := c.name + "/" + strategy
			end := tr.cell(name)
			res, err := run(strategy, c.spec(cfg.Seed, refs[si]*4, plat.nodes()))
			end()
			if err != nil {
				return nil, fmt.Errorf("bench %s: %s: %w", cfg.Name, name, err)
			}
			points = append(points, point{name, res})
		}
	}
	rec := newRecord(cfg)
	for _, p := range points {
		var e obs.RunEntry
		tr.call(trackPass, "analyze.blame", func() error {
			e = faultEntry(w.prefix+p.name, p.res, opt.Overlap)
			return nil
		})
		rec.Entries = append(rec.Entries, e)
	}
	return rec, nil
}

// faultedRun is bench's faultedRun with every layer call traced: the
// memory-conscious plan is rebuilt per run because recovery mutates its
// partition trees. divide re-runs the plan's group division on the
// diagnostic track.
func faultedRun(tr *tracer, ctx *collio.Context, reqs []collio.RankRequest, strategy string,
	opt sim.Options, spec faults.Spec, fast, divide bool) (*collio.FaultResult, error) {
	var fplan *faults.Plan
	err := tr.call(trackPass, "faults.generate", func() (err error) {
		fplan, err = spec.Generate(ctx.Topo.Nodes(), ctx.FS.Targets)
		return err
	})
	if err != nil {
		return nil, err
	}
	inj := faults.NewInjector(fplan)
	var plan *collio.Plan
	var handler collio.FaultHandler
	if strategy == "memory-conscious" {
		var state *core.RecoveryState
		err = tr.call(trackPass, "core.plan", func() (err error) {
			plan, state, err = core.New().PlanWithState(ctx, reqs)
			return err
		})
		if err != nil {
			return nil, err
		}
		if divide {
			if err := tr.diag(func() error { return divideGroups(tr, ctx, reqs, plan) }); err != nil {
				return nil, err
			}
		}
		handler = &core.Failover{State: state, Detect: spec.DetectSeconds}
	} else {
		err = tr.call(trackPass, "twophase.plan", func() (err error) {
			plan, err = twophase.New().Plan(ctx, reqs)
			return err
		})
		if err != nil {
			return nil, err
		}
		handler = twophase.NewStallRetry(ctx.Avail, spec.StallSeconds)
	}
	countPlan(tr, strategy, plan)
	if err := tr.call(trackPass, "collio.validate", func() error { return plan.Validate(reqs) }); err != nil {
		return nil, err
	}
	layer, cost := "collio.cost_faults", collio.CostWithFaults
	if fast {
		layer, cost = "fastsim.cost_faults", fastsim.CostWithFaults
	}
	var res *collio.FaultResult
	err = tr.call(trackPass, layer, func() (err error) {
		res, err = cost(ctx, plan, reqs, collio.Write, opt, inj, handler)
		return err
	})
	if err != nil {
		return nil, err
	}
	countTotals(tr, res.Totals)
	events := 0
	for _, n := range res.Injected {
		events += n
	}
	tr.count("faults.events", float64(events))
	tr.count("faults.failovers", float64(res.Failovers))
	tr.count("faults.stalls", float64(res.Stalls))
	tr.count("faults.replayed_rounds", float64(res.ReplayedRounds))
	return res, nil
}

// sweepEntry copies bench's sweepEntry: one sweep point as a ledger entry.
func sweepEntry(prefix, strategy, op string, memMB int, res *collio.CostResult, overlap bool) obs.RunEntry {
	e := costEntry(fmt.Sprintf("%s%s/%s/mem=%d", prefix, strategy, op, memMB), res, overlap)
	e.Metrics["paged_aggregators"] = float64(res.PagedAggregators)
	e.Metrics["domains"] = float64(res.Domains)
	return e
}

// faultEntry copies bench.Ledger's conversion of one faulted run.
func faultEntry(name string, res *collio.FaultResult, overlap bool) obs.RunEntry {
	e := costEntry(name, &res.CostResult, overlap)
	topUpRecovery(e.Blame, res.RecoverySeconds)
	e.Metrics["failovers"] = float64(res.Failovers)
	e.Metrics["stalls"] = float64(res.Stalls)
	e.Metrics["replayed_rounds"] = float64(res.ReplayedRounds)
	e.Metrics["recovery_seconds"] = res.RecoverySeconds
	return e
}

// costEntry copies bench's costEntry: headline numbers plus the
// critical-path blame from the round trace.
func costEntry(name string, res *collio.CostResult, overlap bool) obs.RunEntry {
	e := obs.RunEntry{
		Name:          name,
		BandwidthMBps: res.Bandwidth / 1e6,
		WallSeconds:   res.Seconds,
		Rounds:        res.Totals.Rounds,
		Metrics:       map[string]float64{},
	}
	if len(res.Trace) > 0 {
		b := analyze.BlameFromTrace(res.Trace, overlap)
		if rest := res.Seconds - b.Total(); rest > 1e-12 {
			b[analyze.PhaseOther] += rest
		}
		e.Blame = map[string]float64(b)
	}
	return e
}

// topUpRecovery copies bench's topUpRecovery.
func topUpRecovery(blame map[string]float64, recoverySeconds float64) {
	if blame == nil {
		return
	}
	extra := recoverySeconds - blame[analyze.PhaseRecovery]
	if extra <= 0 {
		return
	}
	if other := blame[analyze.PhaseOther]; extra > other {
		extra = other
	}
	blame[analyze.PhaseRecovery] += extra
	blame[analyze.PhaseOther] -= extra
}
