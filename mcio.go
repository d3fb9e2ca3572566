// Package mcio is a library-level reproduction of "Memory-Conscious
// Collective I/O for Extreme Scale HPC Systems" (Lu, Chen, Zhuang, Thakur).
//
// It bundles a simulated HPC substrate — a message-passing runtime, a
// machine model with per-node memory availability, and a Lustre-style
// striped parallel file system that stores real bytes — with two
// collective I/O strategies on top of it:
//
//   - TwoPhase: ROMIO's classic two-phase collective I/O (the paper's
//     baseline): even file-domain split, one fixed aggregator per node,
//     oblivious to data distribution and memory availability.
//   - MemoryConscious: the paper's contribution: disjoint aggregation
//     groups, a binary-partition-tree workload partition terminated at
//     Msg_ind, remerging of memory-starved portions, and run-time
//     aggregator placement on the related host with the most available
//     memory (at most N_ah aggregators per host, Mem_min floor).
//
// The quickest route is NewSystem + Open + WriteAll/ReadAll: collective
// calls really move bytes onto the striped file store (verifiable with
// ReadAll or independent reads) and simultaneously price the operation on
// the machine model, returning the bandwidth the paper's figures plot.
//
//	sys, _ := mcio.NewSystem(mcio.SystemConfig{Ranks: 12, RanksPerNode: 4})
//	f, _ := sys.Open("checkpoint", mcio.MemoryConscious())
//	res, _ := f.WriteAll(args)
//	fmt.Println(res.Bandwidth)
package mcio

import (
	"fmt"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/datatype"
	"mcio/internal/layoutaware"
	"mcio/internal/machine"
	"mcio/internal/memmodel"
	"mcio/internal/mpi"
	"mcio/internal/mpiio"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/stats"
	"mcio/internal/tuner"
	"mcio/internal/twophase"
	"mcio/internal/workload"
)

// Re-exported building blocks. The aliases give external callers the full
// types without reaching into internal packages.
type (
	// MachineConfig describes a machine design point (nodes, cores,
	// memory, bandwidths). Presets: Testbed640, Petascale2010,
	// Exascale2018.
	MachineConfig = machine.Config
	// FSConfig describes the striped parallel file system (targets,
	// stripe unit, cost parameters).
	FSConfig = pfs.Config
	// Params carries the strategy tunables the paper names: CollBufSize,
	// Msg_ind, Msg_group, N_ah, Mem_min.
	Params = collio.Params
	// Strategy plans collective operations; TwoPhase and MemoryConscious
	// construct the two shipped implementations.
	Strategy = collio.Strategy
	// Plan is a strategy's decision: groups, file domains, aggregators.
	Plan = collio.Plan
	// CostResult is a priced collective operation (bandwidth, rounds,
	// aggregator accounting).
	CostResult = collio.CostResult
	// RankRequest is one rank's flattened file-extent access list.
	RankRequest = collio.RankRequest
	// Extent is a contiguous file range.
	Extent = pfs.Extent
	// File is an open MPI-IO-style file handle with per-rank views.
	File = mpiio.File
	// CollArgs is one rank's buffer in a collective call.
	CollArgs = mpiio.CollArgs
	// View is an MPI file view (displacement + filetype).
	View = datatype.View
	// Datatype is the layout interface for file views (Contiguous,
	// Vector, Indexed, Subarray).
	Datatype = datatype.Type
	// Contiguous, Vector, Indexed, Subarray, Darray and Repeated are the
	// shipped datatypes; Distribution selects Darray's per-dimension
	// distribution.
	Contiguous   = datatype.Contiguous
	Vector       = datatype.Vector
	Indexed      = datatype.Indexed
	Subarray     = datatype.Subarray
	Darray       = datatype.Darray
	Repeated     = datatype.Repeated
	Distribution = datatype.Distribution
	// CollPerf and IOR generate the paper's benchmark access patterns.
	CollPerf = workload.CollPerf
	IOR      = workload.IOR
	// Op is a collective operation direction (Read or Write).
	Op = collio.Op
)

// Collective operation directions.
const (
	Read  = collio.Read
	Write = collio.Write
)

// Darray distributions.
const (
	DistNone   = datatype.DistNone
	DistBlock  = datatype.DistBlock
	DistCyclic = datatype.DistCyclic
)

// Strategy constructors.

// TwoPhase returns the classic ROMIO two-phase baseline strategy.
func TwoPhase() Strategy { return twophase.New() }

// MemoryConscious returns the paper's memory-conscious strategy.
func MemoryConscious() Strategy { return core.New() }

// LayoutAware returns the LACIO-style layout-aware strategy (stripe-
// aligned file domains, fixed placement) — the related-work comparison
// point of the paper's §5.
func LayoutAware() Strategy { return layoutaware.New() }

// Machine presets.

// Testbed640 is the paper's 640-node evaluation cluster.
func Testbed640() MachineConfig { return machine.Testbed640() }

// Petascale2010 is the 2010 design point of the paper's Table 1.
func Petascale2010() MachineConfig { return machine.Petascale2010() }

// Exascale2018 is the projected exascale design point of Table 1.
func Exascale2018() MachineConfig { return machine.Exascale2018() }

// Table1 renders the paper's Table 1 from the two design-point presets.
func Table1() string { return machine.RenderTable1() }

// ContigView is the default byte-stream file view.
func ContigView() View { return datatype.ContigView() }

// DefaultParams sizes strategy parameters around one collective buffer.
func DefaultParams(collBuf int64) Params { return collio.DefaultParams(collBuf) }

// SystemConfig assembles a simulated platform.
type SystemConfig struct {
	// Machine is the design point; the zero value uses Testbed640 scaled
	// to the topology's node count.
	Machine MachineConfig
	// Ranks and RanksPerNode place the MPI-style processes.
	Ranks        int
	RanksPerNode int
	// FS is the file-system layout; the zero value uses the paper's
	// defaults (1 MB stripes) over 8 targets.
	FS FSConfig
	// Params are the strategy tunables; the zero value uses
	// DefaultParams(16 MB).
	Params Params
}

// System is an instantiated platform: machine, topology, availability
// state and file system.
type System struct {
	ctx  *collio.Context
	fsys *pfs.FileSystem
	mach *machine.Machine
}

// NewSystem builds a System, applying the documented defaults for zero
// fields.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Ranks <= 0 {
		return nil, fmt.Errorf("mcio: Ranks must be positive")
	}
	if cfg.RanksPerNode <= 0 {
		cfg.RanksPerNode = 1
	}
	topo, err := mpi.BlockTopology(cfg.Ranks, cfg.RanksPerNode)
	if err != nil {
		return nil, err
	}
	mc := cfg.Machine
	if mc.Nodes == 0 {
		mc = machine.Testbed640().Scaled(topo.Nodes())
	}
	if mc.Nodes < topo.Nodes() {
		return nil, fmt.Errorf("mcio: machine has %d nodes, topology needs %d", mc.Nodes, topo.Nodes())
	}
	fsCfg := cfg.FS
	if fsCfg.Targets == 0 {
		fsCfg = pfs.DefaultConfig(8)
	}
	params := cfg.Params
	if params.CollBufSize == 0 {
		params = collio.DefaultParams(16 << 20)
	}
	mach, err := machine.New(mc)
	if err != nil {
		return nil, err
	}
	fsys, err := pfs.NewFileSystem(fsCfg)
	if err != nil {
		return nil, err
	}
	ctx := &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   mach.AvailMemory(),
		FS:      fsCfg,
		Params:  params,
	}
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	return &System{ctx: ctx, fsys: fsys, mach: mach}, nil
}

// Ranks returns the number of simulated processes.
func (s *System) Ranks() int { return s.ctx.Topo.Size() }

// Nodes returns the number of compute nodes the ranks span.
func (s *System) Nodes() int { return s.ctx.Topo.Nodes() }

// NodeOf returns the node hosting a rank.
func (s *System) NodeOf(rank int) int { return s.ctx.Topo.NodeOf(rank) }

// AvailableMemory returns the current per-node available aggregation
// memory in bytes.
func (s *System) AvailableMemory() []int64 {
	return append([]int64(nil), s.ctx.Avail...)
}

// SetAvailableMemory pins each node's available aggregation memory —
// the state the paper's run-time aggregator selection inspects.
func (s *System) SetAvailableMemory(avail []int64) error {
	if len(avail) < s.ctx.Topo.Nodes() {
		return fmt.Errorf("mcio: %d availability entries for %d nodes", len(avail), s.ctx.Topo.Nodes())
	}
	s.ctx.Avail = append([]int64(nil), avail...)
	return nil
}

// ApplyMemoryVariance draws each node's available memory from
// N(mean, sigma²) bytes, clamped to [floor, capacity], with a seeded
// generator — the paper's §4 experimental setup. It returns the resulting
// availability vector.
func (s *System) ApplyMemoryVariance(mean, sigma, floor int64, seed uint64) []int64 {
	dist := memmodel.Normal{Mean: float64(mean), Sigma: float64(sigma)}
	avail := memmodel.ApplyAvailability(s.mach, dist, stats.NewRNG(seed), floor)
	s.ctx.Avail = avail
	return append([]int64(nil), avail...)
}

// Open opens (creating if needed) a file for collective access under the
// given strategy.
func (s *System) Open(name string, strategy Strategy) (*File, error) {
	return mpiio.Open(s.fsys, name, s.ctx, strategy)
}

// Plan runs a strategy's planner over explicit rank requests without
// touching any file — useful for inspecting placement decisions.
func (s *System) Plan(strategy Strategy, reqs []RankRequest) (*Plan, error) {
	rs := collio.NewRequestSet(reqs)
	plan, err := strategy.PlanSet(s.ctx, rs)
	if err != nil {
		return nil, err
	}
	if err := plan.ValidateSet(rs); err != nil {
		return nil, err
	}
	return plan, nil
}

// TuneResult is the outcome of AutoTune: the evaluated parameter
// candidates, best first.
type TuneResult = tuner.Result

// AutoTune searches N_ah, Msg_ind and Msg_group for the given workload on
// the system's current memory state — the parameter-determination step
// the paper performs empirically — and installs the best combination as
// the system's parameters. It returns the full search result.
func (s *System) AutoTune(reqs []RankRequest, op Op) (*TuneResult, error) {
	res, err := tuner.Tune(s.ctx, reqs, op, sim.DefaultOptions())
	if err != nil {
		return nil, err
	}
	s.ctx.Params = res.Best.Params
	return res, nil
}

// Params returns the system's current strategy parameters.
func (s *System) Params() Params { return s.ctx.Params }
