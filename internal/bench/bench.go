// Package bench is the experiment harness: it reconstructs every table and
// figure of the paper's evaluation section on the simulated substrate.
//
// Experiments run "plan + cost": the collective I/O strategies plan at the
// paper's logical configuration (ranks, nodes, access pattern), and the
// cost engine prices the data movement, so the paper's 32 GB runs do not
// need 32 GB of host memory. A Scale factor divides every byte quantity
// (data, buffers, stripe unit, availability) and every fixed per-event
// cost (request overhead, latency) uniformly, which preserves the shape of
// every comparison while keeping run times interactive; Scale=1 reproduces
// the paper's exact byte counts.
package bench

import (
	"fmt"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/stats"
	"mcio/internal/tuner"
	"mcio/internal/twophase"
)

// MB is a byte count shorthand for experiment parameters.
const MB = int64(1) << 20

// EngineFast is the engine name FigExaConfig sets, kept for callers
// that still read Config.Engine.
//
// Deprecated: every experiment prices through collio's one pricing
// loop; no code in this package reads Config.Engine.
const EngineFast = "fast"

// Config fixes one experiment's platform and sweep.
type Config struct {
	Name         string
	Ranks        int
	RanksPerNode int
	Targets      int // storage targets (OSTs)

	// Scale divides every byte size and fixed cost; 1 = paper-exact.
	Scale int64
	// Seed drives the availability variance reproducibly.
	Seed uint64
	// SigmaMB is the per-node availability standard deviation in
	// paper-scale MB. The paper draws available memory from a normal
	// distribution with mean equal to the baseline's aggregator buffer
	// size and σ = 50, so the small end of the sweep has enormous
	// *relative* variance — exactly where the paper's improvements are
	// largest. The sigma ablation sweeps this.
	SigmaMB float64
	// HeadroomFactor sets each node's mean available aggregation memory
	// as a multiple of the per-aggregator buffer mean. The paper's mean
	// equals the buffer size, i.e. headroom 1 — the default (0 means 1).
	HeadroomFactor float64
	// MemMB is the sweep of mean per-aggregator memory, in paper-scale MB.
	MemMB []int

	// Strategy tunables (paper-scale bytes; scaled internally).
	MsgIndMB       int // Msg_ind; 0 means "equal to the collective buffer"
	MsgGroupFactor int // Msg_group = factor * Msg_ind
	Nah            int

	// Overlap prices communication/I-O phases as pipelined.
	Overlap bool

	// Preset names the machine design point (machine.PresetNames); empty
	// means the paper's testbed.
	Preset string
	// Engine is ignored.
	//
	// Deprecated: every experiment prices through one loop.
	Engine string
}

// Validate reports an error for an unusable experiment configuration.
func (c Config) Validate() error {
	switch {
	case c.Ranks <= 0 || c.RanksPerNode <= 0:
		return fmt.Errorf("bench %s: ranks/ranksPerNode must be positive", c.Name)
	case c.Targets <= 0:
		return fmt.Errorf("bench %s: targets must be positive", c.Name)
	case c.Scale <= 0:
		return fmt.Errorf("bench %s: scale must be positive", c.Name)
	case c.SigmaMB < 0:
		return fmt.Errorf("bench %s: sigmaMB must be non-negative", c.Name)
	case len(c.MemMB) == 0:
		return fmt.Errorf("bench %s: empty memory sweep", c.Name)
	}
	for _, m := range c.MemMB {
		if m <= 0 {
			return fmt.Errorf("bench %s: memory size %d must be positive", c.Name, m)
		}
	}
	preset, err := machine.Preset(c.Preset)
	if err != nil {
		return fmt.Errorf("bench %s: %w", c.Name, err)
	}
	// Preset × sweep conflict: context() clamps per-node availability to
	// the machine's DRAM, so a sweep point whose mean endowment exceeds
	// MemPerNode would silently flatten against the clamp instead of
	// measuring anything. Reject the combination outright.
	headroom := c.HeadroomFactor
	if headroom <= 0 {
		headroom = 1
	}
	for _, m := range c.MemMB {
		mean := float64(c.scaled(int64(m)*MB)) * headroom
		if mean > float64(preset.MemPerNode) {
			return fmt.Errorf("bench %s: memory sweep point %d MB (scale %d, headroom %g) asks for %.0f bytes per node, but preset %q has only %d; shrink the sweep or pick a larger machine",
				c.Name, m, c.Scale, headroom, mean, preset.Name, preset.MemPerNode)
		}
	}
	return nil
}

// Workload is what a sweep runs: any generator with per-rank requests and
// a total size (workload.CollPerf and workload.IOR satisfy it).
type Workload interface {
	Requests() ([]collio.RankRequest, error)
	TotalBytes() int64
}

// Point is one measured cell of a figure.
type Point struct {
	MemMB    int    // paper-scale mean memory per aggregator
	Strategy string // "two-phase" or "memory-conscious"
	Op       string // "write" or "read"
	MBps     float64
	Result   *collio.CostResult
}

// Series is one figure's worth of points.
type Series struct {
	Name     string
	Workload string
	Config   Config
	Points   []Point
}

// scaled divides a paper-scale byte count by the configured scale,
// clamping at 1.
func (c Config) scaled(bytes int64) int64 {
	v := bytes / c.Scale
	if v < 1 {
		return 1
	}
	return v
}

// nahOrDefault returns the configured N_ah or the default of 4.
func (c Config) nahOrDefault() int {
	if c.Nah > 0 {
		return c.Nah
	}
	return 4
}

// options are the pricing options of every run on c: the default cost
// model with c's overlap and N_ah. Callers that want round traces set
// Trace.
func (c Config) options() sim.Options {
	opt := sim.DefaultOptions()
	opt.Overlap = c.Overlap
	opt.NahOpt = c.nahOrDefault()
	return opt
}

// platform is what every point of one sweep shares: the rank topology,
// read-only once built, and zs, the per-node standard-normal draw
// (common random numbers: the relative memory endowment of each node is
// a property of the machine state, not of the sweep point, so curves
// stay smooth).
type platform struct {
	topo mpi.Topology
	zs   []float64
}

// platform builds the sweep's topology and availability draw.
func (c Config) platform() (*platform, error) {
	topo, err := mpi.BlockTopology(c.Ranks, c.RanksPerNode)
	if err != nil {
		return nil, err
	}
	r := stats.NewRNG(c.Seed)
	zs := make([]float64, topo.Nodes())
	for i := range zs {
		zs[i] = r.Normal(0, 1)
	}
	return &platform{topo: topo, zs: zs}, nil
}

// context builds the planning context for one sweep point on plat.
// totalBytes is the workload volume, used to floor Msg_ind so the domain
// count does not exceed the machine's aggregator slots (Nah per node).
func (c Config) context(plat *platform, memMean int64, totalBytes int64) (*collio.Context, error) {
	topo, zs := plat.topo, plat.zs
	preset, err := machine.Preset(c.Preset)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", c.Name, err)
	}
	mc := preset.Scaled(topo.Nodes())
	mc.NetLatency /= float64(c.Scale)

	fsCfg := pfs.DefaultConfig(c.Targets)
	fsCfg.StripeUnit = c.scaled(1 * MB) // the paper's 1 MB Lustre stripes
	fsCfg.ReqOverhead /= float64(c.Scale)

	// Availability: headroom*mean + σ*z per node (σ absolute, as in the
	// paper), clamped to a small floor — the induced memory scarcity with
	// node-to-node variance.
	headroom := c.HeadroomFactor
	if headroom <= 0 {
		headroom = 1
	}
	sigma := float64(c.scaled(int64(c.SigmaMB * float64(MB))))
	floor := c.scaled(64 << 10) // starved nodes keep only a sliver
	avail := make([]int64, topo.Nodes())
	for i := range avail {
		v := int64(float64(memMean)*headroom + sigma*zs[i])
		if v < floor {
			v = floor
		}
		if v > mc.MemPerNode {
			v = mc.MemPerNode
		}
		avail[i] = v
	}

	nah := c.nahOrDefault()
	msgInd := memMean
	if c.MsgIndMB > 0 {
		msgInd = c.scaled(int64(c.MsgIndMB) * MB)
	}
	if msgInd < memMean {
		msgInd = memMean
	}
	// Saturation floor, the paper's "empirically determined" Msg_ind for
	// the configuration: with more file domains than the machine can host
	// aggregation buffers for, the partition would immediately remerge or
	// over-commit. Slots are bounded both by N_ah per node and by how
	// many full buffers the available memory actually holds.
	slots := int64(0)
	for _, a := range avail {
		perNode := a / memMean
		if perNode > int64(nah) {
			perNode = int64(nah)
		}
		slots += perNode
	}
	if slots < 1 {
		slots = 1
	}
	if f := totalBytes / slots; msgInd < f {
		msgInd = f
	}
	groupFactor := c.MsgGroupFactor
	if groupFactor <= 0 {
		groupFactor = 8
	}
	params := collio.Params{
		CollBufSize: memMean,
		MsgInd:      msgInd,
		MsgGroup:    int64(groupFactor) * msgInd,
		Nah:         nah,
		MemMin:      memMean / 2,
	}

	return &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   avail,
		FS:      fsCfg,
		Params:  params,
	}, nil
}

// figurePoint is one memory point of an experiment: its workload's
// requests, checked and merged once into a request set, and a fresh
// context at memMB per aggregator.
type figurePoint struct {
	cfg   Config
	wl    Workload
	name  string
	memMB int
	reqs  []collio.RankRequest
	rs    *collio.RequestSet
	ctx   *collio.Context
}

// newPoint validates cfg narrowed to memMB (<= 0 picks 16 MB, where the
// baseline pages and the memory-conscious strategy adapts) and builds
// its point on wl.
func newPoint(cfg Config, wl Workload, name string, memMB int) (*figurePoint, error) {
	if memMB <= 0 {
		memMB = 16
	}
	cfg.MemMB = []int{memMB}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reqs, err := wl.Requests()
	if err != nil {
		return nil, err
	}
	plat, err := cfg.platform()
	if err != nil {
		return nil, err
	}
	ctx, err := cfg.context(plat, cfg.scaled(int64(memMB)*MB), wl.TotalBytes())
	if err != nil {
		return nil, err
	}
	return &figurePoint{cfg: cfg, wl: wl, name: name, memMB: memMB,
		reqs: reqs, rs: collio.NewRequestSet(reqs), ctx: ctx}, nil
}

// RunSweep runs the full (strategy × op × memory) grid for one workload,
// comparing the two-phase baseline against the memory-conscious strategy.
func RunSweep(cfg Config, wl Workload, workloadName string) (*Series, error) {
	return runSweep(cfg, wl, workloadName, []collio.Strategy{twophase.New(), core.New()})
}

// RunSweepWithBaselineAggs runs only the two-phase baseline with k
// statically chosen aggregators per node (ROMIO's cb_config_list knob) —
// used by the ablation showing that dynamic placement is not just "more
// aggregators".
func RunSweepWithBaselineAggs(cfg Config, wl Workload, k int) (*Series, error) {
	return runSweep(cfg, wl, "ior", []collio.Strategy{&twophase.Strategy{AggregatorsPerNode: k}})
}

func runSweep(cfg Config, wl Workload, workloadName string, strategies []collio.Strategy) (*Series, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reqs, err := wl.Requests()
	if err != nil {
		return nil, err
	}
	opt := cfg.options()
	// Per-round traces feed the run ledger's blame attribution; the cost
	// is a few records per round, negligible next to the pricing itself.
	opt.Trace = true
	series := &Series{Name: cfg.Name, Workload: workloadName, Config: cfg}
	// One request set, topology and endowment draw for the whole sweep:
	// every cell plans, validates and prices the same requests.
	rs := collio.NewRequestSet(reqs)
	plat, err := cfg.platform()
	if err != nil {
		return nil, err
	}
	// Every (memory point × strategy) cell is an independent plan+cost
	// simulation; ForEach fans them across the worker pool. Results land
	// in per-cell slots flattened in index order, so the series — and
	// everything rendered from it — is byte-identical to the serial run.
	type cell struct{ pi, si int }
	cells := make([]cell, 0, len(cfg.MemMB)*len(strategies))
	for pi := range cfg.MemMB {
		for si := range strategies {
			cells = append(cells, cell{pi, si})
		}
	}
	cellResults := make([][]Point, len(cells))
	err = ForEach(len(cells), func(ci int) error {
		c := cells[ci]
		memMB := cfg.MemMB[c.pi]
		s := strategies[c.si]
		memMean := cfg.scaled(int64(memMB) * MB)
		// Same availability state for both strategies and both
		// directions: they face the identical machine, as in the
		// paper's runs.
		ctx, err := cfg.context(plat, memMean, wl.TotalBytes())
		if err != nil {
			return err
		}
		// Both directions price from one round structure, built once
		// (building it validates the plan), in one walk of its rounds.
		plan, err := s.PlanSet(ctx, rs)
		var sh *collio.Shape
		if err == nil {
			sh, err = collio.BuildShapeSet(ctx, plan, rs)
		}
		if err != nil {
			return fmt.Errorf("bench %s: %s at %d MB: %w", cfg.Name, s.Name(), memMB, err)
		}
		ops := []collio.Op{collio.Write, collio.Read}
		results, err := collio.CostShape(ctx, plan, sh, rs, ops, opt, collio.FaultEnv{})
		if err != nil {
			return err
		}
		for i, res := range results {
			cellResults[ci] = append(cellResults[ci], Point{
				MemMB:    memMB,
				Strategy: s.Name(),
				Op:       ops[i].String(),
				MBps:     res.Bandwidth / 1e6,
				Result:   &res.CostResult,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, pts := range cellResults {
		series.Points = append(series.Points, pts...)
	}
	return series, nil
}

// find returns the point for (memMB, strategy, op), or nil.
func (s *Series) find(memMB int, strategy, op string) *Point {
	for i := range s.Points {
		p := &s.Points[i]
		if p.MemMB == memMB && p.Strategy == strategy && p.Op == op {
			return p
		}
	}
	return nil
}

// Improvement returns the memory-conscious strategy's mean relative
// improvement over two-phase for the given op across the sweep, as a
// fraction (0.342 = +34.2%) — the aggregate the paper reports per figure.
func (s *Series) Improvement(op string) float64 {
	var sum float64
	var n int
	for _, memMB := range s.Config.MemMB {
		base := s.find(memMB, "two-phase", op)
		mc := s.find(memMB, "memory-conscious", op)
		if base == nil || mc == nil || base.MBps == 0 {
			continue
		}
		sum += mc.MBps/base.MBps - 1
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TuneWorkload runs the parameter auto-tuner over one workload at the
// first memory point of cfg, exposing the paper's deferred
// parameter-determination study as an experiment.
func TuneWorkload(cfg Config, wl Workload) (*tuner.Result, error) {
	if len(cfg.MemMB) == 0 {
		return nil, cfg.Validate() // names the empty sweep
	}
	p, err := newPoint(cfg, wl, "", cfg.MemMB[0])
	if err != nil {
		return nil, err
	}
	return tuner.Tune(p.ctx, p.reqs, collio.Write, cfg.options())
}

// PlansAt plans the Figure 7 workload at one memory point with both
// strategies and returns the plans plus the topology, for inspection
// (cmd/mcio -exp plan).
func PlansAt(cfg Config, memMB int) ([]*collio.Plan, mpi.Topology, error) {
	wl, name := Fig7Workload(cfg)
	p, err := newPoint(cfg, wl, name, memMB)
	if err != nil {
		return nil, mpi.Topology{}, err
	}
	var plans []*collio.Plan
	for _, s := range []collio.Strategy{twophase.New(), core.New()} {
		plan, err := s.PlanSet(p.ctx, p.rs)
		if err != nil {
			return nil, mpi.Topology{}, err
		}
		if err := plan.ValidateSet(p.rs); err != nil {
			return nil, mpi.Topology{}, err
		}
		plans = append(plans, plan)
	}
	return plans, p.ctx.Topo, nil
}
