// Package workload generates the access patterns of the paper's
// evaluation: the coll_perf benchmark from the ROMIO test suite (a 3-D
// block-distributed array written and read in row-major file order) and
// LLNL's IOR benchmark (interleaved/segmented and random access), plus
// synthetic patterns used by the extended test suite.
//
// A generator produces one collio.RankRequest per rank — the flattened
// file extents a real MPI-IO run would derive from each rank's file view —
// along with the per-process data volume, so the harness can report
// bandwidth exactly as the original benchmarks do.
package workload

import (
	"fmt"
	"slices"

	"mcio/internal/collio"
	"mcio/internal/datatype"
	"mcio/internal/pfs"
	"mcio/internal/stats"
)

// CollPerf describes a coll_perf run: an N×N×N element array, distributed
// in 3-D blocks over a process grid, stored row-major in one shared file.
// The paper runs 2048³ 4-byte elements over 120 processes (a 32 GB file).
type CollPerf struct {
	// ArrayDim is N, the cube's edge length in elements.
	ArrayDim int64
	// ElemBytes is the element width (coll_perf uses 4-byte ints).
	ElemBytes int64
	// Grid is the process grid; Grid[0]*Grid[1]*Grid[2] must equal the
	// rank count. Use DimsCreate to factor a rank count.
	Grid [3]int
}

// Validate reports an error for impossible geometry.
func (c CollPerf) Validate() error {
	if c.ArrayDim <= 0 || c.ElemBytes <= 0 {
		return fmt.Errorf("workload: coll_perf dims must be positive")
	}
	for _, g := range c.Grid {
		if g <= 0 {
			return fmt.Errorf("workload: coll_perf grid %v must be positive", c.Grid)
		}
		if int64(g) > c.ArrayDim {
			return fmt.Errorf("workload: coll_perf grid %v exceeds array dim %d", c.Grid, c.ArrayDim)
		}
	}
	return nil
}

// TotalBytes returns the file size of the run.
func (c CollPerf) TotalBytes() int64 {
	return c.ArrayDim * c.ArrayDim * c.ArrayDim * c.ElemBytes
}

// Requests generates one request per rank. Uneven divisions hand the
// remainder elements to the leading ranks of each dimension, so any rank
// count with a valid grid works.
func (c CollPerf) Requests() ([]collio.RankRequest, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	nprocs := c.Grid[0] * c.Grid[1] * c.Grid[2]
	reqs := make([]collio.RankRequest, 0, nprocs)
	rank := 0
	for i := 0; i < c.Grid[0]; i++ {
		for j := 0; j < c.Grid[1]; j++ {
			for k := 0; k < c.Grid[2]; k++ {
				sub := datatype.Subarray{
					Sizes: []int64{c.ArrayDim, c.ArrayDim, c.ArrayDim},
					Subsizes: []int64{
						blockLen(c.ArrayDim, c.Grid[0], i),
						blockLen(c.ArrayDim, c.Grid[1], j),
						blockLen(c.ArrayDim, c.Grid[2], k),
					},
					Starts: []int64{
						blockStart(c.ArrayDim, c.Grid[0], i),
						blockStart(c.ArrayDim, c.Grid[1], j),
						blockStart(c.ArrayDim, c.Grid[2], k),
					},
					ElemBytes: c.ElemBytes,
				}
				reqs = append(reqs, collio.RankRequest{Rank: rank, Extents: sub.Flatten()})
				rank++
			}
		}
	}
	return reqs, nil
}

// blockStart/blockLen implement MPI_BLOCK-style distribution with the
// remainder spread over the leading blocks.
func blockStart(n int64, parts, idx int) int64 {
	base := n / int64(parts)
	rem := n % int64(parts)
	i := int64(idx)
	if i < rem {
		return i * (base + 1)
	}
	return rem*(base+1) + (i-rem)*base
}

func blockLen(n int64, parts, idx int) int64 {
	base := n / int64(parts)
	if int64(idx) < n%int64(parts) {
		return base + 1
	}
	return base
}

// DimsCreate factors nprocs into a balanced 3-D grid, mirroring
// MPI_Dims_create: dimensions as close to each other as possible,
// non-increasing.
func DimsCreate(nprocs int) ([3]int, error) {
	if nprocs <= 0 {
		return [3]int{}, fmt.Errorf("workload: nprocs %d must be positive", nprocs)
	}
	best := [3]int{nprocs, 1, 1}
	bestSpread := nprocs - 1
	for a := 1; a*a*a <= nprocs; a++ {
		if nprocs%a != 0 {
			continue
		}
		rest := nprocs / a
		for b := a; b*b <= rest; b++ {
			if rest%b != 0 {
				continue
			}
			cDim := rest / b
			if spread := cDim - a; spread < bestSpread {
				best = [3]int{cDim, b, a}
				bestSpread = spread
			}
		}
	}
	return best, nil
}

// IOR describes an IOR run in its segmented (interleaved) layout: the file
// is a sequence of segments; each segment holds one contiguous block per
// rank, in rank order. TransferSize is the unit of each I/O call and must
// divide BlockSize; the access pattern of one collective call is the whole
// file, as in IOR's collective MPI-IO mode.
//
//	file = [seg 0: r0 block, r1 block, ...][seg 1: r0 block, ...]...
type IOR struct {
	Ranks        int
	BlockSize    int64 // contiguous bytes per rank per segment
	TransferSize int64 // granularity of individual transfers
	Segments     int   // number of segments ("-s")
	// Random shuffles each rank's transfer offsets pseudo-randomly within
	// its own blocks (IOR's random-offset mode, "Interleaved Or Random").
	Random bool
	// Seed drives the random mode reproducibly.
	Seed uint64
}

// Validate reports an error for impossible geometry.
func (w IOR) Validate() error {
	switch {
	case w.Ranks <= 0:
		return fmt.Errorf("workload: IOR ranks must be positive")
	case w.BlockSize <= 0 || w.TransferSize <= 0 || w.Segments <= 0:
		return fmt.Errorf("workload: IOR sizes must be positive")
	case w.BlockSize%w.TransferSize != 0:
		return fmt.Errorf("workload: IOR transfer size %d must divide block size %d",
			w.TransferSize, w.BlockSize)
	}
	return nil
}

// TotalBytes returns the file size of the run.
func (w IOR) TotalBytes() int64 {
	return int64(w.Ranks) * w.BlockSize * int64(w.Segments)
}

// BytesPerRank returns the per-process data volume ("I/O data message per
// MPI process" in the paper's wording).
func (w IOR) BytesPerRank() int64 { return w.BlockSize * int64(w.Segments) }

// Requests generates one request per rank.
func (w IOR) Requests() ([]collio.RankRequest, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	// Every rank's extents live in one backing array; each rank's list is
	// capped at its own stretch, so appending to one cannot reach the next.
	reqs := make([]collio.RankRequest, w.Ranks)
	if !w.Random {
		segStride := int64(w.Ranks) * w.BlockSize
		backing := make([]pfs.Extent, w.Ranks*w.Segments)
		for r := range reqs {
			exts := backing[r*w.Segments : (r+1)*w.Segments : (r+1)*w.Segments]
			for s := range exts {
				exts[s] = pfs.Extent{Offset: int64(s)*segStride + int64(r)*w.BlockSize, Length: w.BlockSize}
			}
			reqs[r] = collio.RankRequest{Rank: r, Extents: exts}
		}
		return reqs, nil
	}
	// Random mode: each rank's data volume is unchanged but lands at
	// shuffled transfer-sized slots of the whole file region. Slots are
	// partitioned among ranks by a seeded global permutation, keeping the
	// per-rank volume and the file coverage identical to the interleaved
	// mode (what IOR's random mode randomizes is locality). A rank's
	// slots, sorted, with adjacent ones merged, are its canonical list.
	slots := w.TotalBytes() / w.TransferSize
	perRank := int(w.BytesPerRank() / w.TransferSize)
	perm := stats.NewRNG(w.Seed).Perm(int(slots))
	backing := make([]pfs.Extent, w.Ranks*perRank)
	for r := range reqs {
		mine := perm[r*perRank : (r+1)*perRank]
		slices.Sort(mine)
		exts := backing[r*perRank : r*perRank : (r+1)*perRank]
		for _, slot := range mine {
			off := int64(slot) * w.TransferSize
			if n := len(exts); n > 0 && exts[n-1].End() == off {
				exts[n-1].Length += w.TransferSize
				continue
			}
			exts = append(exts, pfs.Extent{Offset: off, Length: w.TransferSize})
		}
		reqs[r] = collio.RankRequest{Rank: r, Extents: exts}
	}
	return reqs, nil
}

// Strided gives each rank a vector pattern: count blocks of blockLen,
// rank-interleaved (rank r's block i at offset (i*n + r)*blockLen).
func Strided(n int, count int, blockLen int64) []collio.RankRequest {
	reqs := make([]collio.RankRequest, n)
	for r := 0; r < n; r++ {
		var exts []pfs.Extent
		for i := 0; i < count; i++ {
			exts = append(exts, pfs.Extent{
				Offset: int64(i*n+r) * blockLen,
				Length: blockLen,
			})
		}
		reqs[r] = collio.RankRequest{Rank: r, Extents: exts}
	}
	return reqs
}

// Unbalanced gives rank r a contiguous range of (r+1)*unit bytes, laid
// end to end — a triangular load where the last rank writes n times the
// first's. It stresses the workload-partition and placement logic, which
// the balanced IOR/coll_perf patterns never do.
func Unbalanced(n int, unit int64) []collio.RankRequest {
	reqs := make([]collio.RankRequest, n)
	var off int64
	for r := 0; r < n; r++ {
		length := int64(r+1) * unit
		reqs[r] = collio.RankRequest{
			Rank:    r,
			Extents: []pfs.Extent{{Offset: off, Length: length}},
		}
		off += length
	}
	return reqs
}

// ReversedNodes gives rank r the range belonging to position (n-1-r) of a
// contiguous layout: data locality is the exact opposite of rank order,
// an adversarial case for aggregator placement heuristics that assume
// rank-major locality.
func ReversedNodes(n int, size int64) []collio.RankRequest {
	reqs := make([]collio.RankRequest, n)
	for r := 0; r < n; r++ {
		reqs[r] = collio.RankRequest{
			Rank:    r,
			Extents: []pfs.Extent{{Offset: int64(n-1-r) * size, Length: size}},
		}
	}
	return reqs
}
