package collio

import (
	"fmt"

	"mcio/internal/integrity"
	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// ExecIndependent really performs the requests as independent
// (non-collective) I/O — the degradation ladder's last rung, used when no
// aggregation plan can be placed. Each rank issues its own normalized
// extents straight against the file, serially in ascending rank order so
// overlapping writes resolve exactly as Exec's aggregators would (higher
// ranks overwrite lower ones). chk, when enabled, read-verifies each
// rank's write-back just like the collective path, so torn writes are
// detected (and repaired) even with no aggregator in the loop; there is
// no shuffle, so there are no messages to checksum.
func ExecIndependent(ctx *Context, data []RankData, file *pfs.File, op Op, chk *integrity.Checker) error {
	if err := ctx.Validate(); err != nil {
		return err
	}
	if len(data) != ctx.Topo.Size() {
		return fmt.Errorf("collio: ExecIndependent got %d rank buffers for %d ranks", len(data), ctx.Topo.Size())
	}
	for r, d := range data {
		if d.Req.Rank != r {
			return fmt.Errorf("collio: rank buffer %d labeled rank %d", r, d.Req.Rank)
		}
		if want := d.Req.Bytes(); int64(len(d.Buf)) != want {
			return fmt.Errorf("collio: rank %d buffer is %d bytes, request needs %d", r, len(d.Buf), want)
		}
	}
	for r := range data {
		norm := pfs.Normalized(data[r].Req.Extents)
		if len(norm) == 0 {
			continue
		}
		var pos int64
		for _, e := range norm {
			if op == Write {
				if _, err := file.WriteAt(data[r].Buf[pos:pos+e.Length], e.Offset); err != nil {
					return fmt.Errorf("collio: independent write rank %d: %w", r, err)
				}
			} else {
				if _, err := file.ReadAt(data[r].Buf[pos:pos+e.Length], e.Offset); err != nil {
					return fmt.Errorf("collio: independent read rank %d: %w", r, err)
				}
			}
			pos += e.Length
		}
		if op == Write && chk.Enabled() {
			verifyWriteBack(file, norm, data[r].Buf, chk)
		}
	}
	return nil
}

// CostIndependent prices the same requests issued as independent
// (non-collective) I/O: every rank sends its own flattened extents
// straight to the storage targets, with no aggregation, no shuffle, and
// no request merging beyond what a single rank's own extents provide.
// This is the §2 motivation baseline: many small noncontiguous requests
// hitting the file system directly.
//
// Each rank's accesses are priced in one logical round — independent I/O
// has no collective buffer to cycle — so the bottleneck is the most
// loaded storage target plus each node's own traffic.
func CostIndependent(ctx *Context, reqs []RankRequest, op Op, opt sim.Options) (*CostResult, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	rs := NewRequestSet(reqs)
	if rank, ok := InvalidRank(ctx, rs); ok {
		return nil, fmt.Errorf("collio: independent request for invalid rank %d", rank)
	}
	if rank, e, ok := rs.NegativeExtent(); ok {
		return nil, fmt.Errorf("collio: rank %d requests an extent of negative length %d", rank, e.Length)
	}
	eng, err := ctx.NewEngine(opt)
	if err != nil {
		return nil, err
	}
	var round sim.AggRound
	for i := range rs.Len() {
		norm := rs.List(i)
		if len(norm) == 0 {
			continue
		}
		node := ctx.Topo.NodeOf(rs.Rank(i))
		for _, acc := range ctx.FS.MapExtents(norm) {
			round.IOOps = append(round.IOOps, sim.IOOp{
				Target:     acc.Target,
				Node:       node,
				Bytes:      acc.Bytes,
				Requests:   acc.Requests,
				Contiguous: acc.Contiguous,
				Write:      op == Write,
			})
		}
	}
	eng.RunAggRound(round)
	userBytes := rs.TotalBytes()
	return &CostResult{
		Strategy:  "independent",
		Op:        op,
		UserBytes: userBytes,
		Seconds:   eng.Elapsed(),
		Bandwidth: eng.Bandwidth(userBytes),
		Totals:    eng.Totals(),
		MaxRounds: 1,
	}, nil
}
