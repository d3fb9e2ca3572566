package datatype

import (
	"reflect"
	"testing"
	"testing/quick"

	mrand "math/rand"

	"mcio/internal/stats"
)

func TestDarrayValidate(t *testing.T) {
	good := Darray{
		Rank: 0, Sizes: []int64{8, 8},
		Distribs: []Distribution{DistBlock, DistBlock},
		PSizes:   []int{2, 2}, ElemBytes: 4,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Darray{
		{},
		{Rank: 0, Sizes: []int64{8}, Distribs: []Distribution{DistBlock, DistBlock}, PSizes: []int{2}, ElemBytes: 4},
		{Rank: 0, Sizes: []int64{8}, Distribs: []Distribution{DistBlock}, PSizes: []int{2}, ElemBytes: 0},
		{Rank: 0, Sizes: []int64{8}, Distribs: []Distribution{DistBlock}, PSizes: []int{0}, ElemBytes: 4},
		{Rank: 0, Sizes: []int64{0}, Distribs: []Distribution{DistBlock}, PSizes: []int{2}, ElemBytes: 4},
		{Rank: 4, Sizes: []int64{8}, Distribs: []Distribution{DistBlock}, PSizes: []int{2}, ElemBytes: 4},
		{Rank: 0, Sizes: []int64{8}, Distribs: []Distribution{DistNone}, PSizes: []int{2}, ElemBytes: 4},
	}
	for i, d := range bads {
		if err := d.Validate(); err == nil {
			t.Errorf("bad darray %d accepted", i)
		}
	}
}

func TestDarrayBlockMatchesSubarray(t *testing.T) {
	// A block-distributed darray must flatten identically to the
	// equivalent subarray for every rank.
	sizes := []int64{12, 10}
	psizes := []int{3, 2}
	for rank := 0; rank < 6; rank++ {
		d := Darray{
			Rank: rank, Sizes: sizes,
			Distribs: []Distribution{DistBlock, DistBlock},
			PSizes:   psizes, ElemBytes: 4,
		}
		i, j := rank/2, rank%2
		s := Subarray{
			Sizes:     sizes,
			Subsizes:  []int64{blockLenIdx(12, 3, int64(i)), blockLenIdx(10, 2, int64(j))},
			Starts:    []int64{blockStartIdx(12, 3, int64(i)), blockStartIdx(10, 2, int64(j))},
			ElemBytes: 4,
		}
		if got, want := d.Flatten(), s.Flatten(); !reflect.DeepEqual(got, want) {
			t.Fatalf("rank %d: darray %v != subarray %v", rank, got, want)
		}
		if d.Size() != s.Size() {
			t.Fatalf("rank %d: size %d != %d", rank, d.Size(), s.Size())
		}
	}
}

func TestDarrayCyclic1D(t *testing.T) {
	// 10 elements cyclic over 3 processes: rank 1 owns 1,4,7.
	d := Darray{
		Rank: 1, Sizes: []int64{10},
		Distribs: []Distribution{DistCyclic},
		PSizes:   []int{3}, ElemBytes: 2,
	}
	want := []Block{{Offset: 2, Length: 2}, {Offset: 8, Length: 2}, {Offset: 14, Length: 2}}
	if got := d.Flatten(); !reflect.DeepEqual(got, want) {
		t.Fatalf("cyclic flatten = %v, want %v", got, want)
	}
	if d.Size() != 6 {
		t.Fatalf("size = %d", d.Size())
	}
}

func TestDarrayDistNone(t *testing.T) {
	// Undistributed first dimension, block second: each rank owns full
	// rows of its column block.
	d := Darray{
		Rank: 1, Sizes: []int64{3, 8},
		Distribs: []Distribution{DistNone, DistBlock},
		PSizes:   []int{1, 2}, ElemBytes: 1,
	}
	want := []Block{{Offset: 4, Length: 4}, {Offset: 12, Length: 4}, {Offset: 20, Length: 4}}
	if got := d.Flatten(); !reflect.DeepEqual(got, want) {
		t.Fatalf("flatten = %v, want %v", got, want)
	}
}

func TestDarrayExtent(t *testing.T) {
	d := Darray{
		Rank: 0, Sizes: []int64{4, 4},
		Distribs: []Distribution{DistBlock, DistBlock},
		PSizes:   []int{2, 2}, ElemBytes: 8,
	}
	if d.Extent() != 128 {
		t.Fatalf("extent = %d", d.Extent())
	}
}

// Property: over all grid ranks, darray portions tile the global array
// exactly and disjointly, for random dimensionality, sizes and
// distributions.
func TestDarrayTilesGlobalArray(t *testing.T) {
	r := stats.NewRNG(83)
	err := quick.Check(func(seed uint64) bool {
		rr := stats.NewRNG(seed)
		ndim := rr.Intn(3) + 1
		sizes := make([]int64, ndim)
		distribs := make([]Distribution, ndim)
		psizes := make([]int, ndim)
		nprocs := 1
		for dim := 0; dim < ndim; dim++ {
			sizes[dim] = rr.Int63n(6) + 1
			switch rr.Intn(3) {
			case 0:
				distribs[dim] = DistNone
				psizes[dim] = 1
			case 1:
				distribs[dim] = DistBlock
				psizes[dim] = rr.Intn(3) + 1
			default:
				distribs[dim] = DistCyclic
				psizes[dim] = rr.Intn(3) + 1
			}
			nprocs *= psizes[dim]
		}
		elem := rr.Int63n(4) + 1
		var totalElems int64 = 1
		for _, s := range sizes {
			totalElems *= s
		}
		covered := make([]int, totalElems*elem)
		var totalBytes int64
		for rank := 0; rank < nprocs; rank++ {
			d := Darray{Rank: rank, Sizes: sizes, Distribs: distribs, PSizes: psizes, ElemBytes: elem}
			if err := d.Validate(); err != nil {
				return false
			}
			for _, b := range d.Flatten() {
				for i := b.Offset; i < b.Offset+b.Length; i++ {
					covered[i]++
				}
				totalBytes += b.Length
			}
			if d.Size() != blocksBytes(d.Flatten()) {
				return false
			}
		}
		if totalBytes != totalElems*elem {
			return false
		}
		for _, c := range covered {
			if c != 1 {
				return false // hole or overlap
			}
		}
		return true
	}, &quick.Config{MaxCount: 150, Rand: mrand.New(mrand.NewSource(int64(r.Uint64())))})
	if err != nil {
		t.Fatal(err)
	}
}

func blocksBytes(bs []Block) int64 {
	var n int64
	for _, b := range bs {
		n += b.Length
	}
	return n
}

func TestRepeated(t *testing.T) {
	inner := Vector{Count: 2, BlockLen: 2, Stride: 4} // blocks 0..2, 4..6; extent 6
	rep := Repeated{Inner: inner, Count: 3}
	if rep.Size() != 12 || rep.Extent() != 18 {
		t.Fatalf("size/extent = %d/%d", rep.Size(), rep.Extent())
	}
	want := []Block{{Offset: 0, Length: 2}, {Offset: 4, Length: 4}, {Offset: 10, Length: 4}, {Offset: 16, Length: 2}}
	// Tile 1: 0..2,4..6; tile 2 at 6: 6..8,10..12; tile 3 at 12: 12..14,16..18.
	// 4..6 and 6..8 coalesce; 10..12 and 12..14 coalesce.
	if got := rep.Flatten(); !reflect.DeepEqual(got, want) {
		t.Fatalf("flatten = %v, want %v", got, want)
	}
	if (Repeated{Inner: inner, Count: 0}).Flatten() != nil {
		t.Fatal("zero count should flatten to nil")
	}
}

func TestRepeatedAsView(t *testing.T) {
	// Repeated composes with views: a repeated holey type tiles like its
	// expansion.
	inner := Vector{Count: 1, BlockLen: 3, Stride: 3}
	rep := Repeated{Inner: inner, Count: 4}
	v := View{Disp: 10, Filetype: rep}
	exts := v.Extents(0, 12)
	if len(exts) != 1 || exts[0].Offset != 10 || exts[0].Length != 12 {
		t.Fatalf("extents = %v", exts)
	}
}
