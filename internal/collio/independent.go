package collio

import (
	"fmt"

	"mcio/internal/integrity"
	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// ExecIndependent really performs the requests as independent
// (non-collective) I/O — the degradation ladder's last rung, used when no
// aggregation plan can be placed. rs and bufs are as ExecVerified takes
// them. Each rank issues its own canonical extents straight against the
// file, serially in ascending rank order so overlapping writes resolve
// exactly as Exec's aggregators would (higher ranks overwrite lower
// ones). chk, when enabled, read-verifies each rank's write-back just
// like the collective path, so torn writes are detected (and repaired)
// even with no aggregator in the loop; there is no shuffle, so there are
// no messages to checksum.
func ExecIndependent(ctx *Context, rs *RequestSet, bufs [][]byte, file *pfs.File, op Op, chk *integrity.Checker) error {
	if err := checkExec(ctx, rs, bufs); err != nil {
		return err
	}
	for r, buf := range bufs {
		var pos int64
		for _, e := range rs.List(r) {
			var err error
			if op == Write {
				_, err = file.WriteAt(buf[pos:pos+e.Length], e.Offset)
			} else {
				_, err = file.ReadAt(buf[pos:pos+e.Length], e.Offset)
			}
			if err != nil {
				return fmt.Errorf("collio: independent %s rank %d: %w", op, r, err)
			}
			pos += e.Length
		}
		if op == Write && chk.Enabled() {
			verifyWriteBack(file, rs.List(r), buf, chk)
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
func CostIndependent(ctx *Context, rs *RequestSet, op Op, opt sim.Options) (*CostResult, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
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
	mapper := ctx.FS.NewMapper()
	for i := range rs.Len() {
		node := ctx.Topo.NodeOf(rs.Rank(i))
		for _, acc := range mapper.Map(rs.List(i)) {
			round.IOOps = append(round.IOOps, sim.IOOp{
				Target:     acc.Target,
				Count:      acc.Count,
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
