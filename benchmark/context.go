package main

import (
	"fmt"

	"mcio/internal/bench"
	"mcio/internal/collio"
	"mcio/internal/faults"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/stats"
)

// The traced run must call every layer from outside, so it rebuilds the
// inputs bench builds internally. Each function here copies the
// arithmetic of one unexported helper. The tests hold the context copies
// to the public sweep and faults entry points bit for bit; exaFaultSpec
// has no public entry point at a testable size, so only -check-baselines
// holds it, with the rest, to the committed ledgers.

// platform is a bench.Config plus the per-node standard-normal draw every
// memory point of a sweep shares (bench's common random numbers).
type platform struct {
	cfg bench.Config
	zs  []float64
}

func newPlatform(cfg bench.Config) (*platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nodes := (cfg.Ranks + cfg.RanksPerNode - 1) / cfg.RanksPerNode
	r := stats.NewRNG(cfg.Seed)
	zs := make([]float64, nodes)
	for i := range zs {
		zs[i] = r.Normal(0, 1)
	}
	return &platform{cfg: cfg, zs: zs}, nil
}

func (p *platform) nodes() int { return len(p.zs) }

// options are the engine options bench prices its sweeps with.
func (p *platform) options() sim.Options {
	opt := sim.DefaultOptions()
	opt.Overlap = p.cfg.Overlap
	opt.NahOpt = p.nah()
	opt.Trace = true
	return opt
}

// scaled copies bench.Config.scaled.
func (p *platform) scaled(bytes int64) int64 {
	v := bytes / p.cfg.Scale
	if v < 1 {
		return 1
	}
	return v
}

// nah copies bench.Config.nahOrDefault.
func (p *platform) nah() int {
	if p.cfg.Nah > 0 {
		return p.cfg.Nah
	}
	return 4
}

// context copies bench.Config.context: the planning context of one
// memory point for a workload of totalBytes.
func (p *platform) context(memMB int, totalBytes int64) (*collio.Context, error) {
	c := p.cfg
	memMean := p.scaled(int64(memMB) * bench.MB)
	topo, err := mpi.BlockTopology(c.Ranks, c.RanksPerNode)
	if err != nil {
		return nil, err
	}
	preset, err := machine.Preset(c.Preset)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", c.Name, err)
	}
	mc := preset.Scaled(topo.Nodes())
	mc.NetLatency /= float64(c.Scale)

	fsCfg := pfs.DefaultConfig(c.Targets)
	fsCfg.StripeUnit = p.scaled(1 * bench.MB)
	fsCfg.ReqOverhead /= float64(c.Scale)

	headroom := c.HeadroomFactor
	if headroom <= 0 {
		headroom = 1
	}
	sigma := float64(p.scaled(int64(c.SigmaMB * float64(bench.MB))))
	floor := p.scaled(64 << 10)
	avail := make([]int64, topo.Nodes())
	for i := range avail {
		v := int64(float64(memMean)*headroom + sigma*p.zs[i])
		if v < floor {
			v = floor
		}
		if v > mc.MemPerNode {
			v = mc.MemPerNode
		}
		avail[i] = v
	}

	nah := p.nah()
	msgInd := memMean
	if c.MsgIndMB > 0 {
		msgInd = p.scaled(int64(c.MsgIndMB) * bench.MB)
	}
	if msgInd < memMean {
		msgInd = memMean
	}
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
	return &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   avail,
		FS:      fsCfg,
		Params: collio.Params{
			CollBufSize: memMean,
			MsgInd:      msgInd,
			MsgGroup:    int64(groupFactor) * msgInd,
			Nah:         nah,
			MemMin:      memMean / 2,
		},
	}, nil
}

// capacityParams copies core's unexported capacityParams: the Msg_ind
// floor the memory-conscious planner applies before DivideGroups, which
// the diagnostic re-run of DivideGroups needs to see the planner's input.
func capacityParams(ctx *collio.Context, reqs []collio.RankRequest) collio.Params {
	p := ctx.Params
	var total int64
	for _, r := range reqs {
		total += r.Bytes()
	}
	if total == 0 {
		return p
	}
	var slots int64
	for node := 0; node < ctx.Topo.Nodes(); node++ {
		perNode := ctx.Avail[node] / p.CollBufSize
		if perNode > int64(p.Nah) {
			perNode = int64(p.Nah)
		}
		slots += perNode
	}
	if slots < 1 {
		slots = 1
	}
	if floor := total / slots; p.MsgInd < floor {
		p.MsgInd = floor
	}
	if p.MsgGroup < p.MsgInd {
		p.MsgGroup = p.MsgInd
	}
	return p
}

// exaFaultSpec copies bench's unexported exaFaultSpec: the fig-exa-faults
// schedule of one (crash budget, straggler fraction, collapse severity)
// cell, background faults zeroed and rates calibrated to the clean-run
// window.
func exaFaultSpec(seed uint64, horizon float64, nodes int, crash, frac, sev float64) faults.Spec {
	spec := faults.DefaultSpec(seed, horizon)
	spec.MsgDelayMTBF = 0
	spec.MsgDropMTBF = 0
	spec.OSTTransientMTBF = 0
	spec.OSTPermanentMTBF = 0
	window := horizon / 4
	if crash <= 0 {
		spec.NodeCrashMTBF = 0
		spec.MemCollapseMTBF = 0
	} else {
		spec.NodeCrashMTBF = float64(nodes) * window / crash
		spec.MemCollapseMTBF = float64(nodes) * window / crash
	}
	if frac <= 0 {
		spec.StragglerMTBF = 0
	} else {
		spec.StragglerMTBF = window / frac
	}
	spec.CollapseFraction = sev
	return spec
}
