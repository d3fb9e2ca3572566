package bench

import (
	"fmt"
	"math"

	"mcio/internal/workload"
)

// paperSweepMB is the aggregator-memory axis of Figures 6-8: 2 MB to
// 128 MB per aggregator.
func paperSweepMB() []int { return []int{2, 4, 8, 16, 32, 64, 128} }

// DefaultScale keeps the full figure set interactive (seconds, not
// minutes) while preserving every comparison's shape; pass 1 for
// paper-exact byte counts.
const DefaultScale = 64

// Fig6Config is the platform of Figure 6: coll_perf, 120 processes on 10
// twelve-core nodes (the paper's testbed node shape), a 2048³ 4-byte
// array = 32 GB file on 1 MB-striped storage.
func Fig6Config(scale int64, seed uint64) Config {
	return Config{
		Name:         "fig6-collperf-120",
		Ranks:        120,
		RanksPerNode: 12,
		Targets:      16,
		Scale:        scale,
		Seed:         seed,
		SigmaMB:      50,
		MemMB:        paperSweepMB(),
		MsgIndMB:     32,
	}
}

// Fig6Workload scales the 2048³ array: the cube edge shrinks by the cube
// root of Scale so the file volume scales linearly.
func Fig6Workload(cfg Config) (Workload, string, error) {
	edge := int64(math.Round(2048 / math.Cbrt(float64(cfg.Scale))))
	if edge < 8 {
		edge = 8
	}
	grid, err := workload.DimsCreate(cfg.Ranks)
	if err != nil {
		return nil, "", err
	}
	c := workload.CollPerf{ArrayDim: edge, ElemBytes: 4, Grid: grid}
	name := fmt.Sprintf("coll_perf %d^3 x4B (%d MB file)", edge, c.TotalBytes()/MB)
	return c, name, nil
}

func fig6(scale int64, seed uint64) (Config, Workload, string, error) {
	cfg := Fig6Config(scale, seed)
	wl, name, err := Fig6Workload(cfg)
	return cfg, wl, name, err
}

// Fig7Config is the platform of Figure 7: IOR, 120 processes, 32 MB of
// I/O data per process, interleaved (segmented) layout.
func Fig7Config(scale int64, seed uint64) Config {
	return Config{
		Name:         "fig7-ior-120",
		Ranks:        120,
		RanksPerNode: 12,
		Targets:      16,
		Scale:        scale,
		Seed:         seed,
		SigmaMB:      50,
		MemMB:        paperSweepMB(),
		MsgIndMB:     32,
	}
}

// Fig7Workload builds the interleaved IOR pattern: 8 segments of 4 MB
// blocks = 32 MB per process (scaled).
func Fig7Workload(cfg Config) (Workload, string) {
	block := cfg.scaled(4 * MB)
	w := workload.IOR{
		Ranks:        cfg.Ranks,
		BlockSize:    block,
		TransferSize: block,
		Segments:     8,
	}
	name := fmt.Sprintf("IOR interleaved %d ranks, %d MB/proc", cfg.Ranks, w.BytesPerRank()*cfg.Scale/MB)
	return w, name
}

func fig7(scale int64, seed uint64) (Config, Workload, string, error) {
	cfg := Fig7Config(scale, seed)
	wl, name := Fig7Workload(cfg)
	return cfg, wl, name, nil
}

// Fig8Config is the platform of Figure 8: IOR at 1080 processes (90
// twelve-core nodes), aggregation memory swept 128 MB down to 2 MB.
func Fig8Config(scale int64, seed uint64) Config {
	return Config{
		Name:         "fig8-ior-1080",
		Ranks:        1080,
		RanksPerNode: 12,
		Targets:      32,
		Scale:        scale,
		Seed:         seed,
		SigmaMB:      50,
		MemMB:        paperSweepMB(),
		MsgIndMB:     32,
	}
}

// Fig8Workload builds the 1080-rank interleaved IOR pattern.
func Fig8Workload(cfg Config) (Workload, string) {
	block := cfg.scaled(4 * MB)
	w := workload.IOR{
		Ranks:        cfg.Ranks,
		BlockSize:    block,
		TransferSize: block,
		Segments:     8,
	}
	name := fmt.Sprintf("IOR interleaved %d ranks, %d MB/proc", cfg.Ranks, w.BytesPerRank()*cfg.Scale/MB)
	return w, name
}

func fig8(scale int64, seed uint64) (Config, Workload, string, error) {
	cfg := Fig8Config(scale, seed)
	wl, name := Fig8Workload(cfg)
	return cfg, wl, name, nil
}

// FigExaConfig is the extrapolation experiment the paper argues toward
// but could not run: the Figure 8 IOR sweep pushed to the Table 1
// exascale design point — one million ranks on ten thousand nodes —
// priced from per-node bundles, since a per-rank replay would
// materialize a million messages per round. The memory axis keeps the
// scarce half of the paper sweep: at ~10 MB per core, 64 MB aggregator
// buffers are already a luxury.
func FigExaConfig(scale int64, seed uint64) Config {
	return Config{
		Name:         "fig-exa-ior-1m",
		Ranks:        1_000_000,
		RanksPerNode: 100,
		Targets:      1024,
		Scale:        scale,
		Seed:         seed,
		SigmaMB:      50,
		MemMB:        []int{8, 16, 32, 64},
		MsgIndMB:     32,
		Preset:       "exascale2018",
		Engine:       EngineFast, // read by nothing; kept for callers that still inspect it
	}
}

// FigExaWorkload builds the million-rank interleaved IOR pattern: two
// segments of 4 MB blocks = 8 MB per process (scaled), ~8 TB of file.
func FigExaWorkload(cfg Config) (Workload, string) {
	block := cfg.scaled(4 * MB)
	w := workload.IOR{
		Ranks:        cfg.Ranks,
		BlockSize:    block,
		TransferSize: block,
		Segments:     2,
	}
	name := fmt.Sprintf("IOR interleaved %d ranks, %d MB/proc", cfg.Ranks, w.BytesPerRank()*cfg.Scale/MB)
	return w, name
}

func figExa(scale int64, seed uint64) (Config, Workload, string, error) {
	cfg := FigExaConfig(scale, seed)
	wl, name := FigExaWorkload(cfg)
	return cfg, wl, name, nil
}

// sweep runs a figure's full memory sweep from its (Config, Workload,
// name) builder.
func sweep(figure func(scale int64, seed uint64) (Config, Workload, string, error), scale int64, seed uint64) (*Series, error) {
	cfg, wl, name, err := figure(scale, seed)
	if err != nil {
		return nil, err
	}
	return RunSweep(cfg, wl, name)
}
