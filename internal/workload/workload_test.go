package workload

import (
	"slices"
	"testing"
	"testing/quick"

	mrand "math/rand"

	"mcio/internal/collio"
	"mcio/internal/pfs"
	"mcio/internal/stats"
)

func TestDimsCreate(t *testing.T) {
	cases := []struct {
		n    int
		want [3]int
	}{
		{1, [3]int{1, 1, 1}},
		{8, [3]int{2, 2, 2}},
		{120, [3]int{6, 5, 4}},
		{1080, [3]int{12, 10, 9}},
		{7, [3]int{7, 1, 1}},
		{12, [3]int{3, 2, 2}},
	}
	for _, c := range cases {
		got, err := DimsCreate(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("DimsCreate(%d) = %v, want %v", c.n, got, c.want)
		}
		if got[0]*got[1]*got[2] != c.n {
			t.Errorf("DimsCreate(%d) does not multiply out", c.n)
		}
	}
	if _, err := DimsCreate(0); err == nil {
		t.Error("DimsCreate(0) accepted")
	}
}

func TestCollPerfValidate(t *testing.T) {
	good := CollPerf{ArrayDim: 16, ElemBytes: 4, Grid: [3]int{2, 2, 2}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []CollPerf{
		{ArrayDim: 0, ElemBytes: 4, Grid: [3]int{1, 1, 1}},
		{ArrayDim: 4, ElemBytes: 0, Grid: [3]int{1, 1, 1}},
		{ArrayDim: 4, ElemBytes: 4, Grid: [3]int{0, 1, 1}},
		{ArrayDim: 4, ElemBytes: 4, Grid: [3]int{8, 1, 1}},
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad coll_perf %d accepted", i)
		}
	}
}

func TestCollPerfCoversFileExactly(t *testing.T) {
	c := CollPerf{ArrayDim: 12, ElemBytes: 4, Grid: [3]int{3, 2, 2}}
	reqs, err := c.Requests()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 12 {
		t.Fatalf("got %d requests", len(reqs))
	}
	var all []pfs.Extent
	var total int64
	for _, r := range reqs {
		b := r.Bytes()
		if b == 0 {
			t.Fatalf("rank %d has no data", r.Rank)
		}
		total += b
		all = append(all, r.Extents...)
	}
	if total != c.TotalBytes() {
		t.Fatalf("ranks hold %d bytes, file is %d", total, c.TotalBytes())
	}
	norm := pfs.NormalizeExtents(all)
	if len(norm) != 1 || norm[0] != (pfs.Extent{Offset: 0, Length: c.TotalBytes()}) {
		t.Fatalf("requests do not tile the file exactly: %v", norm)
	}
}

func TestCollPerfDisjoint(t *testing.T) {
	c := CollPerf{ArrayDim: 10, ElemBytes: 2, Grid: [3]int{2, 3, 2}} // uneven
	reqs, err := c.Requests()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, r := range reqs {
		total += r.Bytes()
	}
	// Disjointness: sum of per-rank bytes equals bytes of the union.
	var all []pfs.Extent
	for _, r := range reqs {
		all = append(all, r.Extents...)
	}
	if union := pfs.TotalBytes(pfs.NormalizeExtents(all)); union != total {
		t.Fatalf("requests overlap: union %d != sum %d", union, total)
	}
}

func TestIORInterleaved(t *testing.T) {
	w := IOR{Ranks: 3, BlockSize: 100, TransferSize: 50, Segments: 2}
	reqs, err := w.Requests()
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalBytes() != 600 || w.BytesPerRank() != 200 {
		t.Fatalf("sizes: total=%d perRank=%d", w.TotalBytes(), w.BytesPerRank())
	}
	// Rank 1: segment 0 at 100, segment 1 at 400.
	want := []pfs.Extent{{Offset: 100, Length: 100}, {Offset: 400, Length: 100}}
	got := reqs[1].Extents
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("rank 1 extents = %v, want %v", got, want)
	}
}

func TestIORValidate(t *testing.T) {
	bads := []IOR{
		{Ranks: 0, BlockSize: 10, TransferSize: 10, Segments: 1},
		{Ranks: 1, BlockSize: 0, TransferSize: 10, Segments: 1},
		{Ranks: 1, BlockSize: 10, TransferSize: 0, Segments: 1},
		{Ranks: 1, BlockSize: 10, TransferSize: 10, Segments: 0},
		{Ranks: 1, BlockSize: 10, TransferSize: 3, Segments: 1},
	}
	for i, w := range bads {
		if err := w.Validate(); err == nil {
			t.Errorf("bad IOR %d accepted", i)
		}
	}
}

func TestIORRandomKeepsVolumes(t *testing.T) {
	w := IOR{Ranks: 4, BlockSize: 60, TransferSize: 20, Segments: 3, Random: true, Seed: 7}
	reqs, err := w.Requests()
	if err != nil {
		t.Fatal(err)
	}
	var all []pfs.Extent
	for _, r := range reqs {
		if r.Bytes() != w.BytesPerRank() {
			t.Fatalf("rank %d holds %d bytes, want %d", r.Rank, r.Bytes(), w.BytesPerRank())
		}
		all = append(all, r.Extents...)
	}
	norm := pfs.NormalizeExtents(all)
	if pfs.TotalBytes(norm) != w.TotalBytes() {
		t.Fatalf("random mode lost bytes: %d != %d", pfs.TotalBytes(norm), w.TotalBytes())
	}
	if len(norm) != 1 {
		t.Fatalf("random mode must still cover the file exactly: %v", norm)
	}
}

func TestIORRandomReproducible(t *testing.T) {
	w := IOR{Ranks: 4, BlockSize: 60, TransferSize: 20, Segments: 3, Random: true, Seed: 7}
	a, _ := w.Requests()
	b, _ := w.Requests()
	for r := range a {
		if len(a[r].Extents) != len(b[r].Extents) {
			t.Fatal("random IOR not reproducible")
		}
		for i := range a[r].Extents {
			if a[r].Extents[i] != b[r].Extents[i] {
				t.Fatal("random IOR not reproducible")
			}
		}
	}
	w2 := w
	w2.Seed = 8
	c, _ := w2.Requests()
	same := true
	for r := range a {
		for i := range a[r].Extents {
			if i < len(c[r].Extents) && a[r].Extents[i] != c[r].Extents[i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds gave identical random layout")
	}
}

func TestContiguousAndStrided(t *testing.T) {
	c := Contiguous(3, 100)
	if len(c) != 3 || c[2].Extents[0].Offset != 200 {
		t.Fatalf("Contiguous = %+v", c)
	}
	s := Strided(2, 3, 10)
	// rank 1: blocks at (0*2+1)*10=10, (1*2+1)*10=30, (2*2+1)*10=50.
	want := []pfs.Extent{{Offset: 10, Length: 10}, {Offset: 30, Length: 10}, {Offset: 50, Length: 10}}
	for i, e := range s[1].Extents {
		if e != want[i] {
			t.Fatalf("Strided rank 1 = %v, want %v", s[1].Extents, want)
		}
	}
}

// Property: every generated workload covers its declared TotalBytes
// exactly and disjointly.
func TestWorkloadCoverageProperty(t *testing.T) {
	r := stats.NewRNG(73)
	err := quick.Check(func(seed uint64) bool {
		rr := stats.NewRNG(seed)
		switch rr.Intn(3) {
		case 0:
			n := rr.Intn(32) + 4
			grid, _ := DimsCreate(n)
			c := CollPerf{ArrayDim: int64(rr.Intn(10) + 8), ElemBytes: int64(rr.Intn(8) + 1), Grid: grid}
			if c.Validate() != nil {
				return true // grid larger than dim: skip
			}
			reqs, err := c.Requests()
			if err != nil {
				return false
			}
			return coversExactly(reqs, c.TotalBytes())
		case 1:
			tr := int64(rr.Intn(8)+1) * 10
			w := IOR{
				Ranks:        rr.Intn(8) + 1,
				BlockSize:    tr * int64(rr.Intn(4)+1),
				TransferSize: tr,
				Segments:     rr.Intn(4) + 1,
			}
			reqs, err := w.Requests()
			if err != nil {
				return false
			}
			return coversExactly(reqs, w.TotalBytes())
		default:
			tr := int64(rr.Intn(8)+1) * 10
			w := IOR{
				Ranks:        rr.Intn(8) + 1,
				BlockSize:    tr * int64(rr.Intn(4)+1),
				TransferSize: tr,
				Segments:     rr.Intn(4) + 1,
				Random:       true,
				Seed:         rr.Uint64(),
			}
			reqs, err := w.Requests()
			if err != nil {
				return false
			}
			return coversExactly(reqs, w.TotalBytes())
		}
	}, &quick.Config{MaxCount: 150, Rand: mrand.New(mrand.NewSource(int64(r.Uint64())))})
	if err != nil {
		t.Fatal(err)
	}
}

// coversExactly reports whether the requests' union holds exactly total
// bytes with no overlap between ranks.
func coversExactly(reqs []collio.RankRequest, total int64) bool {
	var all []pfs.Extent
	var sum int64
	for _, r := range reqs {
		sum += r.Bytes()
		all = append(all, r.Extents...)
	}
	return sum == total && pfs.TotalBytes(pfs.NormalizeExtents(all)) == total
}

func TestUnbalanced(t *testing.T) {
	reqs := Unbalanced(4, 10)
	if len(reqs) != 4 {
		t.Fatalf("ranks = %d", len(reqs))
	}
	// Rank r holds (r+1)*10 bytes; ranges are contiguous end to end.
	var off int64
	for r, req := range reqs {
		want := pfs.Extent{Offset: off, Length: int64(r+1) * 10}
		if req.Extents[0] != want {
			t.Fatalf("rank %d extent = %v, want %v", r, req.Extents[0], want)
		}
		off += want.Length
	}
	if !coversExactly(reqs, 100) { // 10+20+30+40
		t.Fatal("unbalanced requests do not tile")
	}
}

func TestReversedNodes(t *testing.T) {
	reqs := ReversedNodes(3, 100)
	if reqs[0].Extents[0].Offset != 200 || reqs[2].Extents[0].Offset != 0 {
		t.Fatalf("reversal wrong: %v", reqs)
	}
	if !coversExactly(reqs, 300) {
		t.Fatal("reversed requests do not tile")
	}
}

// IOR builds every rank's list in one backing array. Each list must be
// canonical and capped at its own stretch, so an append by one rank
// never writes into the next rank's extents; random mode must equal
// normalizing the rank's permuted slots.
func TestIORListsOwnTheirStretch(t *testing.T) {
	for _, w := range []IOR{
		{Ranks: 5, BlockSize: 40, TransferSize: 10, Segments: 3},
		{Ranks: 5, BlockSize: 40, TransferSize: 10, Segments: 3, Random: true, Seed: 3},
	} {
		reqs, err := w.Requests()
		if err != nil {
			t.Fatal(err)
		}
		perRank := w.BytesPerRank() / w.TransferSize
		perm := stats.NewRNG(w.Seed).Perm(int(w.TotalBytes() / w.TransferSize))
		for r, req := range reqs {
			if !pfs.IsNormalized(req.Extents) {
				t.Fatalf("random %v rank %d: list not canonical: %v", w.Random, r, req.Extents)
			}
			if w.Random {
				var slots []pfs.Extent
				for i := int64(0); i < perRank; i++ {
					slots = append(slots, pfs.Extent{Offset: int64(perm[int64(r)*perRank+i]) * w.TransferSize, Length: w.TransferSize})
				}
				if want := pfs.NormalizeExtents(slots); !slices.Equal(req.Extents, want) {
					t.Fatalf("rank %d: %v, want the normalized slots %v", r, req.Extents, want)
				}
			}
		}
		for r := 0; r+1 < len(reqs); r++ {
			next := append([]pfs.Extent(nil), reqs[r+1].Extents...)
			_ = append(reqs[r].Extents, pfs.Extent{Offset: -1, Length: 1})
			if !slices.Equal(reqs[r+1].Extents, next) {
				t.Fatalf("random %v: appending to rank %d's list changed rank %d's", w.Random, r, r+1)
			}
		}
	}
}
