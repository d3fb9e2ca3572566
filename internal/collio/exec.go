package collio

import (
	"fmt"
	"sort"
	"sync"

	"mcio/internal/pfs"
)

// stagePool recycles the gather/scatter staging buffers of the data
// executor. Ranks run as goroutines and a collective write churns one
// chunk per (domain, contributor) plus one domain buffer per aggregator;
// pooling them keeps the shuffle hot path allocation-free after warm-up.
// A chunk handed to mpi.Proc.Send transfers ownership with the message —
// the receiver releases it after scattering.
var stagePool sync.Pool

// getStage returns a length-n buffer with unspecified contents — every
// use either fully overwrites it (gather output) or zeroes it first
// (domain assembly).
func getStage(n int64) []byte {
	if v := stagePool.Get(); v != nil {
		b := *(v.(*[]byte))
		if int64(cap(b)) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

// putStage recycles a buffer obtained from getStage (or received in a
// message whose sender staged it there).
func putStage(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	stagePool.Put(&b)
}

// Exec really performs the collective operation described by plan: ranks
// run as goroutines, shuffle their contributions to the plan's
// aggregators, and the aggregators read or write the striped file. It is
// ExecVerified with no checker, corrupter or hedger.
func Exec(ctx *Context, plan *Plan, rs *RequestSet, bufs [][]byte, file *pfs.File, op Op) error {
	return ExecVerified(ctx, plan, rs, bufs, file, op, nil, nil, nil)
}

// checkExec is the executors' shared prologue. rs must hold one request
// per rank of ctx's topology, in rank order, with no extent of negative
// length. bufs[r] is rank r's memory: the bytes of rs.List(r)'s extents
// concatenated in file order (the request's data space: byte 0 is the
// first byte of the lowest extent), so it is exactly as long as that
// list's bytes.
func checkExec(ctx *Context, rs *RequestSet, bufs [][]byte) error {
	if err := ctx.Validate(); err != nil {
		return err
	}
	if n := ctx.Topo.Size(); rs.Len() != n || len(bufs) != n {
		return fmt.Errorf("collio: got %d requests and %d rank buffers for %d ranks", rs.Len(), len(bufs), n)
	}
	if !rs.ranksInOrder {
		for i := range rs.Len() {
			if rs.Rank(i) != i {
				return fmt.Errorf("collio: request %d is for rank %d, not in rank order", i, rs.Rank(i))
			}
		}
	}
	if rank, e, ok := rs.NegativeExtent(); ok {
		return fmt.Errorf("collio: rank %d requests an extent of negative length %d", rank, e.Length)
	}
	for r, buf := range bufs {
		if want := pfs.TotalBytes(rs.List(r)); int64(len(buf)) != want {
			return fmt.Errorf("collio: rank %d buffer is %d bytes, request needs %d", r, len(buf), want)
		}
	}
	return nil
}

// domSched lists, for one domain, each contributing rank and the extents
// of its request that fall inside the domain.
type domSched struct {
	contributors []int          // ranks with data in the domain, ascending
	overlap      [][]pfs.Extent // indexed like contributors
}

// buildScheds precomputes, per domain, each contributing rank's overlap
// with the rank's canonical list — every rank derives the identical
// schedule, as real two-phase code does from the allgathered offset
// lists. rs has passed checkExec, so request r is rank r's.
func buildScheds(plan *Plan, rs *RequestSet) []domSched {
	scheds := make([]domSched, len(plan.Domains))
	for i, d := range plan.Domains {
		ranks := append([]int(nil), plan.GroupRanks[d.Group]...)
		sort.Ints(ranks)
		for _, r := range ranks {
			ov := pfs.Intersect(rs.List(r), d.Extents)
			if len(ov) > 0 {
				scheds[i].contributors = append(scheds[i].contributors, r)
				scheds[i].overlap = append(scheds[i].overlap, ov)
			}
		}
	}
	return scheds
}

// dataPos returns the data-space position of file offset off within the
// normalized extent list exts. off must lie inside one of the extents.
func dataPos(exts []pfs.Extent, off int64) int64 {
	var pos int64
	for _, e := range exts {
		if off >= e.Offset && off < e.End() {
			return pos + (off - e.Offset)
		}
		pos += e.Length
	}
	panic(fmt.Sprintf("collio: offset %d outside extents %v", off, exts))
}

// gather copies the bytes of the want extents (each contained in a single
// extent of exts) out of a buffer laid out per exts, concatenated in file
// order. The result comes from stagePool; the consumer returns it with
// putStage once scattered.
func gather(exts []pfs.Extent, buf []byte, want []pfs.Extent) []byte {
	out := getStage(pfs.TotalBytes(want))[:0]
	for _, w := range want {
		pos := dataPos(exts, w.Offset)
		out = append(out, buf[pos:pos+w.Length]...)
	}
	return out
}

// scatter is the inverse of gather: it places data (the concatenation of
// the want extents in file order) into a buffer laid out per exts.
func scatter(exts []pfs.Extent, buf []byte, want []pfs.Extent, data []byte) {
	var read int64
	for _, w := range want {
		pos := dataPos(exts, w.Offset)
		copy(buf[pos:pos+w.Length], data[read:read+w.Length])
		read += w.Length
	}
	if read != int64(len(data)) {
		panic(fmt.Sprintf("collio: scatter consumed %d of %d bytes", read, len(data)))
	}
}
