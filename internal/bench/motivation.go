package bench

import (
	"fmt"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/forwarding"
	"mcio/internal/twophase"
	"mcio/internal/workload"
)

// Motivation reproduces the rationale of the paper's §2: parallel file
// systems handle large contiguous streams well but collapse under many
// small noncontiguous requests, which is exactly what collective I/O
// fixes. It sweeps the IOR transfer granularity from fine to coarse and
// prices independent I/O against both collective strategies.
func Motivation(scale int64, seed uint64) (*Table, error) {
	cfg := Fig7Config(scale, seed)
	cfg.Name = "motivation"

	t := &Table{
		Name: "motivation: independent vs forwarded vs collective I/O (IOR write, 120 ranks, MB/s)",
		Header: []string{
			"block/rank", "independent", "io-forwarding", "two-phase", "memory-conscious", "collective gain",
		},
	}
	opt := cfg.options()
	// Finer interleaving = more, smaller noncontiguous pieces per rank.
	for _, blockKB := range []int64{64, 256, 1024, 4096} {
		block := cfg.scaled(blockKB << 10)
		segments := int((4 << 20) / (blockKB << 10) * 8)
		if segments < 1 {
			segments = 1
		}
		w := workload.IOR{
			Ranks:        cfg.Ranks,
			BlockSize:    block,
			TransferSize: block,
			Segments:     segments,
		}
		p, err := newPoint(cfg, w, "", 16)
		if err != nil {
			return nil, err
		}
		ctx, reqs, rs := p.ctx, p.reqs, p.rs
		indep, err := collio.CostIndependent(ctx, reqs, collio.Write, opt)
		if err != nil {
			return nil, err
		}
		// The forwarding layer gets two dedicated I/O nodes appended to
		// the machine, ZOID-style.
		fctx := *ctx
		fctx.Machine.Nodes += 2
		fctx.Avail = append(append([]int64(nil), ctx.Avail...),
			fctx.Machine.MemPerNode, fctx.Machine.MemPerNode)
		fwd, err := forwarding.Cost(&fctx, reqs, collio.Write, opt,
			forwarding.Config{Forwarders: 2, BufferBytes: cfg.scaled(64 * MB)})
		if err != nil {
			return nil, err
		}
		bw := func(s collio.Strategy) (float64, error) {
			plan, err := s.PlanSet(ctx, rs)
			if err != nil {
				return 0, err
			}
			if err := plan.ValidateSet(rs); err != nil {
				return 0, err
			}
			res, err := collio.CostSet(ctx, plan, rs, collio.Write, opt)
			if err != nil {
				return 0, err
			}
			return res.Bandwidth, nil
		}
		twoPh, err := bw(twophase.New())
		if err != nil {
			return nil, err
		}
		mc, err := bw(core.New())
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d KB", blockKB),
			fmt.Sprintf("%.1f", indep.Bandwidth/1e6),
			fmt.Sprintf("%.1f", fwd.Bandwidth/1e6),
			fmt.Sprintf("%.1f", twoPh/1e6),
			fmt.Sprintf("%.1f", mc/1e6),
			fmt.Sprintf("%.1fx", mc/indep.Bandwidth),
		})
	}
	return t, nil
}
