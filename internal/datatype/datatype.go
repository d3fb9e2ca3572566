// Package datatype implements the MPI-derived-datatype machinery that
// collective I/O consumes: contiguous, vector (strided), indexed, and
// N-dimensional subarray layouts, plus file views (displacement + etype +
// filetype) that map a process's linear data stream to noncontiguous file
// offsets.
//
// Everything reduces to Flatten: the canonical sorted list of
// (offset, length) blocks one instance ("tile") of the type touches. File
// views tile the flattened filetype along the file to translate data-space
// ranges into file-space extents — exactly what ROMIO's flattening code
// does before two-phase aggregation.
package datatype

import (
	"fmt"
	"sort"

	"mcio/internal/pfs"
)

// Block is a contiguous run within a datatype, relative to the type's
// origin. It is a file extent, so a flattened type is a request list as
// it stands.
type Block = pfs.Extent

// Type is a data layout: a (possibly holey) pattern of bytes.
type Type interface {
	// Size returns the number of data bytes in one instance of the type.
	Size() int64
	// Extent returns the span of one instance including holes; tiling a
	// type advances by its extent.
	Extent() int64
	// Flatten returns the type's blocks sorted by offset, coalescing
	// adjacent blocks. The result must not be mutated.
	Flatten() []Block
}

// Contiguous is N contiguous bytes with no holes.
type Contiguous struct{ Bytes int64 }

// Size implements Type.
func (c Contiguous) Size() int64 { return c.Bytes }

// Extent implements Type.
func (c Contiguous) Extent() int64 { return c.Bytes }

// Flatten implements Type.
func (c Contiguous) Flatten() []Block {
	if c.Bytes <= 0 {
		return nil
	}
	return []Block{{Offset: 0, Length: c.Bytes}}
}

// Vector is Count blocks of BlockLen bytes, each Stride bytes apart
// (stride measured start-to-start, in bytes). The MPI_Type_vector of this
// simulator.
type Vector struct {
	Count    int
	BlockLen int64
	Stride   int64
}

// Size implements Type.
func (v Vector) Size() int64 { return int64(v.Count) * v.BlockLen }

// Extent implements Type.
func (v Vector) Extent() int64 {
	if v.Count == 0 {
		return 0
	}
	return int64(v.Count-1)*v.Stride + v.BlockLen
}

// Flatten implements Type.
func (v Vector) Flatten() []Block {
	if v.Count <= 0 || v.BlockLen <= 0 {
		return nil
	}
	if v.Stride == v.BlockLen {
		// Degenerate: no holes.
		return []Block{{Offset: 0, Length: int64(v.Count) * v.BlockLen}}
	}
	blocks := make([]Block, v.Count)
	for i := range blocks {
		blocks[i] = Block{Offset: int64(i) * v.Stride, Length: v.BlockLen}
	}
	return coalesce(blocks)
}

// Indexed is an explicit block list (MPI_Type_indexed with byte
// displacements). Blocks may be given unsorted; they must not overlap.
type Indexed struct{ Blocks []Block }

// Size implements Type.
func (x Indexed) Size() int64 {
	var n int64
	for _, b := range x.Blocks {
		n += b.Length
	}
	return n
}

// Extent implements Type.
func (x Indexed) Extent() int64 {
	var max int64
	for _, b := range x.Blocks {
		if end := b.Offset + b.Length; end > max {
			max = end
		}
	}
	return max
}

// Flatten implements Type.
func (x Indexed) Flatten() []Block {
	blocks := make([]Block, 0, len(x.Blocks))
	for _, b := range x.Blocks {
		if b.Length < 0 {
			panic(fmt.Sprintf("datatype: negative block length %d", b.Length))
		}
		if b.Length > 0 {
			blocks = append(blocks, b)
		}
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Offset < blocks[j].Offset })
	for i := 1; i < len(blocks); i++ {
		if blocks[i].Offset < blocks[i-1].Offset+blocks[i-1].Length {
			panic("datatype: overlapping blocks in Indexed type")
		}
	}
	return coalesce(blocks)
}

// Subarray selects an N-dimensional sub-block of an N-dimensional array
// stored in row-major order, as MPI_Type_create_subarray does. Sizes are
// element counts per dimension; ElemBytes is the element width.
type Subarray struct {
	Sizes     []int64 // full array dimensions, row-major (last varies fastest)
	Subsizes  []int64 // sub-block dimensions
	Starts    []int64 // sub-block origin
	ElemBytes int64
}

// Validate reports an error for inconsistent geometry.
func (s Subarray) Validate() error {
	if len(s.Sizes) == 0 {
		return fmt.Errorf("datatype: subarray with no dimensions")
	}
	if len(s.Subsizes) != len(s.Sizes) || len(s.Starts) != len(s.Sizes) {
		return fmt.Errorf("datatype: subarray dimension mismatch: sizes=%d subsizes=%d starts=%d",
			len(s.Sizes), len(s.Subsizes), len(s.Starts))
	}
	if s.ElemBytes <= 0 {
		return fmt.Errorf("datatype: subarray element size %d must be positive", s.ElemBytes)
	}
	for d := range s.Sizes {
		if s.Sizes[d] <= 0 || s.Subsizes[d] <= 0 {
			return fmt.Errorf("datatype: subarray dim %d: sizes must be positive", d)
		}
		if s.Starts[d] < 0 || s.Starts[d]+s.Subsizes[d] > s.Sizes[d] {
			return fmt.Errorf("datatype: subarray dim %d: start %d + subsize %d exceeds size %d",
				d, s.Starts[d], s.Subsizes[d], s.Sizes[d])
		}
	}
	return nil
}

// Size implements Type.
func (s Subarray) Size() int64 {
	n := s.ElemBytes
	for _, ss := range s.Subsizes {
		n *= ss
	}
	return n
}

// Extent implements Type.
func (s Subarray) Extent() int64 {
	n := s.ElemBytes
	for _, sz := range s.Sizes {
		n *= sz
	}
	return n
}

// Flatten implements Type. The innermost dimension yields contiguous runs
// of Subsizes[last] elements; outer dimensions enumerate their origins.
func (s Subarray) Flatten() []Block {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	ndim := len(s.Sizes)
	// Row-major strides in bytes.
	stride := make([]int64, ndim)
	stride[ndim-1] = s.ElemBytes
	for d := ndim - 2; d >= 0; d-- {
		stride[d] = stride[d+1] * s.Sizes[d+1]
	}
	runLen := s.Subsizes[ndim-1] * s.ElemBytes
	// Iterate all index combinations of the outer ndim-1 dimensions.
	nRuns := int64(1)
	for d := 0; d < ndim-1; d++ {
		nRuns *= s.Subsizes[d]
	}
	blocks := make([]Block, 0, nRuns)
	idx := make([]int64, ndim-1)
	for r := int64(0); r < nRuns; r++ {
		var off int64
		for d := 0; d < ndim-1; d++ {
			off += (s.Starts[d] + idx[d]) * stride[d]
		}
		off += s.Starts[ndim-1] * stride[ndim-1]
		blocks = append(blocks, Block{Offset: off, Length: runLen})
		for d := ndim - 2; d >= 0; d-- {
			idx[d]++
			if idx[d] < s.Subsizes[d] {
				break
			}
			idx[d] = 0
		}
	}
	// The walk is row-major and Validate keeps every index inside its
	// dimension, so the offsets already ascend strictly: no sort needed.
	return coalesce(blocks)
}

// coalesce merges adjacent blocks in a sorted non-overlapping block list.
func coalesce(blocks []Block) []Block {
	out := blocks[:0]
	for _, b := range blocks {
		if n := len(out); n > 0 && out[n-1].Offset+out[n-1].Length == b.Offset {
			out[n-1].Length += b.Length
			continue
		}
		out = append(out, b)
	}
	return out
}

// View is an MPI file view: from Disp onward the file is tiled with
// Filetype; the process's data stream maps into the filetype's data bytes
// tile by tile.
type View struct {
	Disp     int64
	Filetype Type
}

// ContigView is the default view: the whole file, byte for byte.
func ContigView() View {
	return View{Disp: 0, Filetype: Contiguous{Bytes: 1}}
}

// Extents translates the data-space range [dataOff, dataOff+n) into
// file-space extents under the view. The returned extents are sorted and
// non-overlapping.
func (v View) Extents(dataOff, n int64) []pfs.Extent {
	if dataOff < 0 || n < 0 {
		panic(fmt.Sprintf("datatype: negative view range (%d,%d)", dataOff, n))
	}
	if n == 0 {
		return nil
	}
	blocks := v.Filetype.Flatten()
	tileSize := v.Filetype.Size()
	tileExtent := v.Filetype.Extent()
	if tileSize <= 0 {
		panic("datatype: view filetype has no data bytes")
	}
	var out []pfs.Extent
	tile := dataOff / tileSize
	within := dataOff % tileSize // data bytes into the current tile
	remaining := n
	for remaining > 0 {
		base := v.Disp + tile*tileExtent
		var seen int64
		for _, b := range blocks {
			if remaining <= 0 {
				break
			}
			if within >= seen+b.Length {
				seen += b.Length
				continue
			}
			skip := within - seen // bytes of this block already consumed
			take := b.Length - skip
			if take > remaining {
				take = remaining
			}
			out = append(out, pfs.Extent{Offset: base + b.Offset + skip, Length: take})
			remaining -= take
			within += take
			seen += b.Length
		}
		tile++
		within = 0
	}
	return pfs.NormalizeExtents(out)
}
