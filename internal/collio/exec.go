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

// RankData pairs one rank's request with its in-memory buffer. The buffer
// is the concatenation of the request's normalized extents in file order
// (the "data space" of the request): buffer byte 0 is the first byte of
// the lowest extent, and so on. Its length must equal the request's total
// bytes.
type RankData struct {
	Req RankRequest
	Buf []byte
}

// Exec really performs the collective operation described by plan: ranks
// run as goroutines, shuffle their contributions to the plan's
// aggregators, and the aggregators read or write the striped file. It is
// ExecVerified with no checker, corrupter or hedger.
func Exec(ctx *Context, plan *Plan, data []RankData, file *pfs.File, op Op) error {
	return ExecVerified(ctx, plan, data, file, op, nil, nil, nil)
}

// domSched lists, for one domain, each contributing rank and the extents
// of its request that fall inside the domain.
type domSched struct {
	contributors []int          // ranks with data in the domain, ascending
	overlap      [][]pfs.Extent // indexed like contributors
}

// buildScheds precomputes, per domain, each contributing rank's overlap —
// every rank derives the identical schedule, as real two-phase code does
// from the allgathered offset lists.
func buildScheds(plan *Plan, data []RankData) (normReq [][]pfs.Extent, scheds []domSched) {
	normReq = make([][]pfs.Extent, len(data))
	for r := range data {
		normReq[r] = pfs.Normalized(data[r].Req.Extents)
	}
	scheds = make([]domSched, len(plan.Domains))
	for i, d := range plan.Domains {
		ranks := append([]int(nil), plan.GroupRanks[d.Group]...)
		sort.Ints(ranks)
		for _, r := range ranks {
			ov := pfs.Intersect(normReq[r], d.Extents)
			if len(ov) > 0 {
				scheds[i].contributors = append(scheds[i].contributors, r)
				scheds[i].overlap = append(scheds[i].overlap, ov)
			}
		}
	}
	return normReq, scheds
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
