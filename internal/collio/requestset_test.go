package collio

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"mcio/internal/pfs"
	"mcio/internal/stats"
)

// randomRequests draws request lists of every shape a set must handle:
// canonical, unsorted, overlapping, abutting, empty, zero-length and,
// when neg is set, negative-length extents; ranks are sometimes out of
// order or repeated.
func randomRequests(r *stats.RNG, neg bool) []RankRequest {
	reqs := make([]RankRequest, r.Intn(8))
	for i := range reqs {
		var exts []pfs.Extent
		for k, n := 0, r.Intn(7); k < n; k++ {
			length := r.Int63n(25)
			if neg && r.Intn(10) == 0 {
				length = -1 - r.Int63n(5)
			}
			exts = append(exts, pfs.Extent{Offset: r.Int63n(300), Length: length})
		}
		if r.Intn(2) == 0 && !slices.ContainsFunc(exts, func(e pfs.Extent) bool { return e.Length < 0 }) {
			exts = pfs.NormalizeExtents(exts)
		}
		rank := i
		if r.Intn(4) == 0 {
			rank = r.Intn(len(reqs))
		}
		reqs[i] = RankRequest{Rank: rank, Extents: exts}
	}
	return reqs
}

// nonNegative returns exts without its negative-length extents: the
// list a set reads for a request holding one.
func nonNegative(exts []pfs.Extent) []pfs.Extent {
	return slices.DeleteFunc(slices.Clone(exts), func(e pfs.Extent) bool { return e.Length < 0 })
}

// checkSet compares everything a set derives from reqs with the same
// facts computed per call.
func checkSet(t *testing.T, reqs []RankRequest) {
	t.Helper()
	rs := NewRequestSet(reqs)
	if rs.Len() != len(reqs) {
		t.Fatalf("Len %d, want %d", rs.Len(), len(reqs))
	}
	var lists [][]pfs.Extent
	var total int64
	wantNeg := false
	var negRank int
	var negExt pfs.Extent
	for i, r := range reqs {
		exts := r.Extents
		for _, e := range exts {
			if e.Length < 0 && !wantNeg {
				wantNeg, negRank, negExt = true, r.Rank, e
			}
		}
		want := pfs.Normalized(nonNegative(exts))
		if got := rs.List(i); !slices.Equal(got, want) {
			t.Fatalf("request %d: List %v, want %v", i, got, want)
		}
		if !pfs.IsNormalized(rs.List(i)) {
			t.Fatalf("request %d: List %v is not canonical", i, rs.List(i))
		}
		bytes := pfs.TotalBytes(rs.List(i))
		if want := (RankRequest{Extents: nonNegative(exts)}).Bytes(); bytes != want {
			t.Fatalf("request %d: bytes %d, want %d", i, bytes, want)
		}
		if rs.Rank(i) != r.Rank {
			t.Fatalf("request %d: Rank %d, want %d", i, rs.Rank(i), r.Rank)
		}
		lists = append(lists, nonNegative(exts))
		total += bytes
	}
	if got, want := rs.Union(), pfs.Union(lists); !reflect.DeepEqual(got, want) {
		t.Fatalf("Union %v, want %v", got, want)
	}
	if rs.TotalBytes() != total {
		t.Fatalf("TotalBytes %d, want %d", rs.TotalBytes(), total)
	}
	rank, e, ok := rs.NegativeExtent()
	if ok != wantNeg || (ok && (rank != negRank || e != negExt)) {
		t.Fatalf("NegativeExtent = (%d, %v, %v), want (%d, %v, %v)", rank, e, ok, negRank, negExt, wantNeg)
	}
	for i, r := range reqs {
		last := i
		for j := i + 1; j < len(reqs); j++ {
			if reqs[j].Rank == r.Rank {
				last = j
			}
		}
		if got := rs.IndexOfRank(r.Rank); got != last {
			t.Fatalf("IndexOfRank(%d) = %d, want %d", r.Rank, got, last)
		}
	}
	var withData []int
	for _, r := range reqs {
		if len(r.Extents) > 0 {
			withData = append(withData, r.Rank)
		}
	}
	if got := rs.RanksWithData(); !slices.Equal(got, withData) || cap(got) != len(got) {
		t.Fatalf("RanksWithData = %v (cap %d), want %v at capped capacity", got, cap(got), withData)
	}
	if got := rs.IndexOfRank(len(reqs) + 7); got != -1 {
		t.Fatalf("IndexOfRank of an absent rank = %d, want -1", got)
	}
}

// A set's lists, union, per-rank bytes and negative extent equal what
// per-call normalization and pfs.Union compute.
func TestRequestSetMatchesPerCall(t *testing.T) {
	r := stats.NewRNG(7)
	for trial := 0; trial < 3000; trial++ {
		checkSet(t, randomRequests(r, trial%3 == 0))
	}
}

// An all-canonical set reads the caller's lists in place and allocates
// nothing per request.
func TestRequestSetCanonicalIsInPlace(t *testing.T) {
	reqs := make([]RankRequest, 1000)
	for i := range reqs {
		reqs[i] = RankRequest{Rank: i, Extents: []pfs.Extent{{Offset: int64(i) * 10, Length: 5}}}
	}
	if n := testing.AllocsPerRun(20, func() { NewRequestSet(reqs) }); n > 1 {
		t.Fatalf("NewRequestSet of canonical lists allocates %v times, want 1", n)
	}
	rs := NewRequestSet(reqs)
	if &rs.List(3)[0] != &reqs[3].Extents[0] {
		t.Fatal("a canonical list was copied")
	}
	// One list out of order gets a normalized copy; the rest stay in place.
	reqs[5].Extents = []pfs.Extent{{Offset: 60, Length: 1}, {Offset: 50, Length: 1}}
	rs = NewRequestSet(reqs)
	if &rs.List(3)[0] != &reqs[3].Extents[0] || &rs.List(7)[0] != &reqs[7].Extents[0] {
		t.Fatal("a canonical list was copied next to one that is not")
	}
	if want := []pfs.Extent{{Offset: 50, Length: 1}, {Offset: 60, Length: 1}}; !slices.Equal(rs.List(5), want) {
		t.Fatalf("List(5) = %v, want %v", rs.List(5), want)
	}
}

// Parallel readers of one set see one union and one list of ranks with
// data.
func TestRequestSetConcurrentReaders(t *testing.T) {
	reqs := randomRequests(stats.NewRNG(3), false)
	reqs = append(reqs, RankRequest{Rank: len(reqs), Extents: []pfs.Extent{{Offset: 5, Length: 9}}})
	rs := NewRequestSet(reqs)
	want := pfs.Union(func() [][]pfs.Extent {
		var l [][]pfs.Extent
		for _, r := range reqs {
			l = append(l, r.Extents)
		}
		return l
	}())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := rs.Union(); !reflect.DeepEqual(got, want) {
				t.Errorf("Union %v, want %v", got, want)
			}
			if got := rs.RanksWithData(); got[len(got)-1] != len(reqs)-1 {
				t.Errorf("RanksWithData %v misses the last rank %d", got, len(reqs)-1)
			}
		}()
	}
	wg.Wait()
}

// FuzzRequestSet decodes byte triples (split, offset, length) into
// request lists — a split byte divisible by 5 starts a new request, and
// a length byte above 240 is negative — and checks the set against
// per-call normalization and union.
func FuzzRequestSet(f *testing.F) {
	f.Add([]byte{0, 10, 5, 1, 3, 4, 5, 8, 2, 2, 30, 9})
	f.Add([]byte{0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1})
	f.Add([]byte{1, 50, 20, 1, 40, 20, 5, 45, 250, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var reqs []RankRequest
		for i := 0; i+3 <= len(data); i += 3 {
			if len(reqs) == 0 || data[i]%5 == 0 {
				reqs = append(reqs, RankRequest{Rank: len(reqs)})
			}
			length := int64(data[i+2] % 40)
			if data[i+2] > 240 {
				length = -int64(data[i+2] - 240)
			}
			q := &reqs[len(reqs)-1]
			q.Extents = append(q.Extents, pfs.Extent{Offset: int64(data[i+1]), Length: length})
		}
		checkSet(t, reqs)
	})
}
