package datatype

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"mcio/internal/pfs"
	"mcio/internal/stats"
)

func TestContiguous(t *testing.T) {
	c := Contiguous{Bytes: 10}
	if c.Size() != 10 || c.Extent() != 10 {
		t.Fatal("size/extent")
	}
	if got := c.Flatten(); !reflect.DeepEqual(got, []Block{{Offset: 0, Length: 10}}) {
		t.Fatalf("flatten = %v", got)
	}
	if (Contiguous{}).Flatten() != nil {
		t.Fatal("empty contiguous should flatten to nil")
	}
}

func TestVector(t *testing.T) {
	v := Vector{Count: 3, BlockLen: 4, Stride: 10}
	if v.Size() != 12 {
		t.Fatalf("size = %d", v.Size())
	}
	if v.Extent() != 24 { // 2*10 + 4
		t.Fatalf("extent = %d", v.Extent())
	}
	want := []Block{{Offset: 0, Length: 4}, {Offset: 10, Length: 4}, {Offset: 20, Length: 4}}
	if got := v.Flatten(); !reflect.DeepEqual(got, want) {
		t.Fatalf("flatten = %v", got)
	}
}

func TestVectorDegenerate(t *testing.T) {
	// Stride == BlockLen means no holes: one block.
	v := Vector{Count: 5, BlockLen: 8, Stride: 8}
	if got := v.Flatten(); !reflect.DeepEqual(got, []Block{{Offset: 0, Length: 40}}) {
		t.Fatalf("flatten = %v", got)
	}
	if (Vector{Count: 0, BlockLen: 4, Stride: 8}).Flatten() != nil {
		t.Fatal("zero-count vector should flatten to nil")
	}
	if (Vector{Count: 0, BlockLen: 4, Stride: 8}).Extent() != 0 {
		t.Fatal("zero-count vector extent")
	}
}

func TestIndexed(t *testing.T) {
	x := Indexed{Blocks: []Block{{Offset: 20, Length: 5}, {Offset: 0, Length: 10}, {Offset: 10, Length: 10}}}
	if x.Size() != 25 || x.Extent() != 25 {
		t.Fatalf("size/extent = %d/%d", x.Size(), x.Extent())
	}
	// 0..10 and 10..20 coalesce; 20..25 is adjacent too: all one block.
	if got := x.Flatten(); !reflect.DeepEqual(got, []Block{{Offset: 0, Length: 25}}) {
		t.Fatalf("flatten = %v", got)
	}
}

func TestIndexedRejectsOverlap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Indexed{Blocks: []Block{{Offset: 0, Length: 10}, {Offset: 5, Length: 10}}}.Flatten()
}

func TestIndexedDropsEmpty(t *testing.T) {
	x := Indexed{Blocks: []Block{{Offset: 5, Length: 0}, {Offset: 0, Length: 3}}}
	if got := x.Flatten(); !reflect.DeepEqual(got, []Block{{Offset: 0, Length: 3}}) {
		t.Fatalf("flatten = %v", got)
	}
}

func TestSubarray2D(t *testing.T) {
	// 4x6 array of 1-byte elements; take the 2x3 block at (1,2).
	s := Subarray{
		Sizes:     []int64{4, 6},
		Subsizes:  []int64{2, 3},
		Starts:    []int64{1, 2},
		ElemBytes: 1,
	}
	if s.Size() != 6 || s.Extent() != 24 {
		t.Fatalf("size/extent = %d/%d", s.Size(), s.Extent())
	}
	want := []Block{{Offset: 8, Length: 3}, {Offset: 14, Length: 3}} // rows 1 and 2, cols 2..5
	if got := s.Flatten(); !reflect.DeepEqual(got, want) {
		t.Fatalf("flatten = %v, want %v", got, want)
	}
}

func TestSubarray3D(t *testing.T) {
	// 2x2x4 array, elements 2 bytes; sub-block 2x1x2 at (0,1,1).
	s := Subarray{
		Sizes:     []int64{2, 2, 4},
		Subsizes:  []int64{2, 1, 2},
		Starts:    []int64{0, 1, 1},
		ElemBytes: 2,
	}
	// plane stride = 2*4*2 = 16, row stride = 4*2 = 8.
	// runs at plane 0 row 1 col 1 → 8+2=10, and plane 1 → 26. Each 4 bytes.
	want := []Block{{Offset: 10, Length: 4}, {Offset: 26, Length: 4}}
	if got := s.Flatten(); !reflect.DeepEqual(got, want) {
		t.Fatalf("flatten = %v, want %v", got, want)
	}
}

func TestSubarrayFullArrayIsContiguous(t *testing.T) {
	s := Subarray{
		Sizes:     []int64{3, 4},
		Subsizes:  []int64{3, 4},
		Starts:    []int64{0, 0},
		ElemBytes: 4,
	}
	if got := s.Flatten(); !reflect.DeepEqual(got, []Block{{Offset: 0, Length: 48}}) {
		t.Fatalf("full subarray should coalesce to one block: %v", got)
	}
}

func TestSubarrayValidate(t *testing.T) {
	bads := []Subarray{
		{},
		{Sizes: []int64{4}, Subsizes: []int64{2, 2}, Starts: []int64{0}, ElemBytes: 1},
		{Sizes: []int64{4}, Subsizes: []int64{2}, Starts: []int64{0}, ElemBytes: 0},
		{Sizes: []int64{4}, Subsizes: []int64{5}, Starts: []int64{0}, ElemBytes: 1},
		{Sizes: []int64{4}, Subsizes: []int64{2}, Starts: []int64{3}, ElemBytes: 1},
		{Sizes: []int64{0}, Subsizes: []int64{0}, Starts: []int64{0}, ElemBytes: 1},
	}
	for i, s := range bads {
		if err := s.Validate(); err == nil {
			t.Errorf("bad subarray %d accepted", i)
		}
	}
}

func TestViewContig(t *testing.T) {
	v := ContigView()
	got := v.Extents(100, 50)
	want := []pfs.Extent{{Offset: 100, Length: 50}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("extents = %v, want %v", got, want)
	}
}

func TestViewZeroLength(t *testing.T) {
	if got := ContigView().Extents(5, 0); got != nil {
		t.Fatalf("zero-length extents = %v", got)
	}
}

func TestViewVectorTiling(t *testing.T) {
	// Filetype: 4 data bytes then 4-byte hole (vector count=1 blocklen=4
	// stride=8 has extent 4 — use Indexed to get an explicit hole).
	ft := Indexed{Blocks: []Block{{Offset: 0, Length: 4}}}
	_ = ft
	// Instead use a Vector with two blocks so extent includes the hole.
	v := View{Disp: 100, Filetype: Vector{Count: 2, BlockLen: 4, Stride: 8}}
	// One tile: data bytes 0..8 -> file 100..104 and 108..112.
	got := v.Extents(0, 8)
	want := []pfs.Extent{{Offset: 100, Length: 4}, {Offset: 108, Length: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("extents = %v, want %v", got, want)
	}
	// Second tile starts at disp + extent (12): data byte 8 -> file 112.
	got = v.Extents(8, 4)
	want = []pfs.Extent{{Offset: 112, Length: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tile-2 extents = %v, want %v", got, want)
	}
}

func TestViewMidBlockStart(t *testing.T) {
	v := View{Disp: 0, Filetype: Vector{Count: 2, BlockLen: 4, Stride: 8}}
	// Start 2 data bytes in: remaining 2 bytes of block 0, then block 1.
	got := v.Extents(2, 4)
	want := []pfs.Extent{{Offset: 2, Length: 2}, {Offset: 8, Length: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("extents = %v, want %v", got, want)
	}
}

func TestViewExtentsPanics(t *testing.T) {
	for _, f := range []func(){
		func() { ContigView().Extents(-1, 5) },
		func() { ContigView().Extents(0, -5) },
		func() { (View{Filetype: Contiguous{}}).Extents(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: Extents conserves bytes, is sorted and non-overlapping, and
// consecutive data ranges map to disjoint file ranges.
func TestViewExtentsProperties(t *testing.T) {
	r := stats.NewRNG(53)
	err := quick.Check(func(seed uint64) bool {
		rr := stats.NewRNG(seed)
		ft := Vector{
			Count:    rr.Intn(5) + 1,
			BlockLen: rr.Int63n(16) + 1,
		}
		ft.Stride = ft.BlockLen + rr.Int63n(16)
		v := View{Disp: rr.Int63n(64), Filetype: ft}
		dataOff := rr.Int63n(100)
		n := rr.Int63n(200) + 1
		exts := v.Extents(dataOff, n)
		if pfs.TotalBytes(exts) != n {
			return false
		}
		for i := 1; i < len(exts); i++ {
			if exts[i].Offset < exts[i-1].End() {
				return false
			}
		}
		// Adjacent data ranges tile disjointly and in order.
		a := v.Extents(dataOff, n/2)
		b := v.Extents(dataOff+n/2, n-n/2)
		if pfs.TotalBytes(a)+pfs.TotalBytes(b) != n {
			return false
		}
		for _, ea := range a {
			for _, eb := range b {
				if ea.Overlaps(eb) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 300, Rand: quickRand(r)})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: a subarray's flattened blocks exactly cover Size() bytes and
// stay within the extent.
func TestSubarrayFlattenProperties(t *testing.T) {
	r := stats.NewRNG(59)
	err := quick.Check(func(seed uint64) bool {
		rr := stats.NewRNG(seed)
		ndim := rr.Intn(3) + 1
		s := Subarray{ElemBytes: rr.Int63n(4) + 1}
		for d := 0; d < ndim; d++ {
			size := rr.Int63n(6) + 1
			sub := rr.Int63n(size) + 1
			start := rr.Int63n(size - sub + 1)
			s.Sizes = append(s.Sizes, size)
			s.Subsizes = append(s.Subsizes, sub)
			s.Starts = append(s.Starts, start)
		}
		blocks := s.Flatten()
		var total int64
		for i, b := range blocks {
			total += b.Length
			if b.Offset < 0 || b.Offset+b.Length > s.Extent() {
				return false
			}
			if i > 0 && b.Offset < blocks[i-1].Offset+blocks[i-1].Length {
				return false
			}
		}
		return total == s.Size()
	}, &quick.Config{MaxCount: 300, Rand: quickRand(r)})
	if err != nil {
		t.Fatal(err)
	}
}

// flattenSorted is Subarray.Flatten as it was before the walk's order
// was relied on: the same row-major run walk, then a sort by offset,
// then coalescing. It is the reference the sort-free Flatten must match.
func flattenSorted(s Subarray) []Block {
	ndim := len(s.Sizes)
	stride := make([]int64, ndim)
	stride[ndim-1] = s.ElemBytes
	for d := ndim - 2; d >= 0; d-- {
		stride[d] = stride[d+1] * s.Sizes[d+1]
	}
	nRuns := int64(1)
	for d := 0; d < ndim-1; d++ {
		nRuns *= s.Subsizes[d]
	}
	var blocks []Block
	idx := make([]int64, ndim-1)
	for r := int64(0); r < nRuns; r++ {
		off := s.Starts[ndim-1] * stride[ndim-1]
		for d := 0; d < ndim-1; d++ {
			off += (s.Starts[d] + idx[d]) * stride[d]
		}
		blocks = append(blocks, Block{Offset: off, Length: s.Subsizes[ndim-1] * s.ElemBytes})
		for d := ndim - 2; d >= 0; d-- {
			if idx[d]++; idx[d] < s.Subsizes[d] {
				break
			}
			idx[d] = 0
		}
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Offset < blocks[j].Offset })
	return coalesce(blocks)
}

// Property: on random valid subarrays of up to four dimensions, the
// sort-free Flatten equals the sort-then-coalesce reference.
func TestSubarrayFlattenMatchesSortedReference(t *testing.T) {
	r := stats.NewRNG(61)
	err := quick.Check(func(seed uint64) bool {
		rr := stats.NewRNG(seed)
		ndim := rr.Intn(4) + 1
		s := Subarray{ElemBytes: rr.Int63n(8) + 1}
		for d := 0; d < ndim; d++ {
			size := rr.Int63n(7) + 1
			sub := rr.Int63n(size) + 1
			s.Sizes = append(s.Sizes, size)
			s.Subsizes = append(s.Subsizes, sub)
			s.Starts = append(s.Starts, rr.Int63n(size-sub+1))
		}
		return reflect.DeepEqual(s.Flatten(), flattenSorted(s))
	}, &quick.Config{MaxCount: 500, Rand: quickRand(r)})
	if err != nil {
		t.Fatal(err)
	}
}
