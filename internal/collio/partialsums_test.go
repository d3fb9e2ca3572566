package collio

import (
	"slices"
	"testing"
	"testing/quick"

	mrand "math/rand"

	"mcio/internal/pfs"
	"mcio/internal/stats"
)

// denseList returns n ascending extents 1 to 8 bytes long, each starting
// minGap to minGap+7 bytes past the previous one's end: coll_perf's rows
// when minGap is positive, a list with adjacent extents to merge when it
// is zero.
func denseList(r *stats.RNG, n int, minGap int64) []pfs.Extent {
	list := make([]pfs.Extent, n)
	off := r.Int63n(16)
	for k := range list {
		list[k] = pfs.Extent{Offset: off, Length: r.Int63n(8) + 1}
		off = list[k].End() + minGap + r.Int63n(8)
	}
	return list
}

// checkOverlapsNaive checks every request of rs against idx: the walk's
// overlaps equal the naive per-bucket intersection of the request's own
// list, and a list of at least longList extents, as the set holds it,
// has one stored total per stride.
func checkOverlapsNaive(t testing.TB, idx *ExtentIndex, buckets [][]pfs.Extent, reqs []RankRequest, rs *RequestSet) {
	t.Helper()
	for i, req := range reqs {
		want := len(rs.List(i)) / partialSumStride
		if len(rs.List(i)) < longList {
			want = 0
		}
		if got := len(rs.partialSums(i)); got != want {
			t.Fatalf("request %d: %d stored totals for %d extents, want %d", i, got, len(rs.List(i)), want)
		}
		row := make([]int64, len(buckets))
		for _, bb := range idx.RequestOverlapAppend(nil, rs, i) {
			row[bb.Bucket] = bb.Bytes
		}
		for b := range buckets {
			if naive := pfs.TotalBytes(pfs.Intersect(req.Extents, buckets[b])); row[b] != naive {
				t.Fatalf("request %d of %d extents, bucket %d: got %d, naive %d", i, len(req.Extents), b, row[b], naive)
			}
		}
	}
}

// Property: on sets mixing long and short lists, some not canonical,
// the walk's overlaps equal the naive per-bucket intersection. Bucket
// extents are long next to the requests', so runs inside them span
// many strides, and they start and end at random, mostly mid-stride.
func TestPartialSumsMatchNaive(t *testing.T) {
	r := stats.NewRNG(83)
	err := quick.Check(func(seed uint64) bool {
		rr := stats.NewRNG(seed)
		var reqs []RankRequest
		var span int64
		for rank := range rr.Intn(4) + 1 {
			n := rr.Intn(longList) + 1
			if rank == 0 || rr.Intn(2) == 0 {
				n = longList + rr.Intn(5000-longList+1)
			}
			list := denseList(rr, n, 1)
			if rr.Intn(3) == 0 {
				// Not canonical: adjacent extents, out of order, one
				// repeated and one empty. The set keeps a normalized copy.
				list = denseList(rr, n, 0)
				slices.Reverse(list)
				list = append(list, list[len(list)/2], pfs.Extent{Offset: 3})
			}
			reqs = append(reqs, RankRequest{Rank: rank, Extents: list})
			for _, e := range list {
				span = max(span, e.End())
			}
		}
		var buckets [][]pfs.Extent
		for cur := rr.Int63n(span / 8); cur < span; {
			var exts []pfs.Extent
			for range rr.Intn(3) + 1 {
				e := pfs.Extent{Offset: cur, Length: rr.Int63n(span/4) + 1}
				exts = append(exts, e)
				cur = e.End() + 1 + rr.Int63n(span/16)
			}
			buckets = append(buckets, exts)
			cur -= rr.Int63n(2) // buckets may touch
		}
		checkOverlapsNaive(t, NewExtentIndex(buckets), buckets, reqs, NewRequestSet(reqs))
		return true
	}, &quick.Config{MaxCount: 100, Rand: mrand.New(mrand.NewSource(int64(r.Uint64())))})
	if err != nil {
		t.Fatal(err)
	}
}

// FuzzPartialSums cross-checks the walk against the naive per-bucket
// intersection on a long list of 64 to 5,000 extents, decoded from a
// repeating (gap, length) pattern, scrambled into a list the set
// normalizes into a copy when asked, and in a set with a short prefix
// of it and an empty request. Buckets are (gap, length) byte pairs
// scaled to the list's span, two extents each.
func FuzzPartialSums(f *testing.F) {
	f.Add(uint16(0), false, []byte{0, 40, 3, 60, 1, 200}, []byte{1, 3})
	f.Add(uint16(33), false, []byte{5, 9, 0, 17, 0, 1, 2, 255}, []byte{0, 7, 5, 0, 2, 2})
	f.Add(uint16(4000), true, []byte{10, 100, 0, 100, 10, 100}, []byte{0, 0, 1, 1})
	f.Add(uint16(4936), false, []byte{0, 255}, []byte{})
	f.Add(uint16(95), true, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []byte{3, 1, 0, 4})
	f.Fuzz(func(t *testing.T, n uint16, scrambled bool, cuts, pattern []byte) {
		count := longList + int(n)%(5000-longList+1)
		if len(pattern) < 2 {
			pattern = []byte{1, 1}
		}
		minGap := int64(1)
		if scrambled {
			minGap = 0
		}
		list := make([]pfs.Extent, count)
		var off int64
		for k := range list {
			p := 2 * k % (len(pattern) - len(pattern)%2)
			off += minGap + int64(pattern[p]%8)
			list[k] = pfs.Extent{Offset: off, Length: int64(pattern[p+1]%8) + 1}
			off = list[k].End()
		}
		short := slices.Clone(list[:count%longList])
		if scrambled {
			slices.Reverse(list)
			list = append(list, list[count/3])
		}
		var buckets [][]pfs.Extent
		var exts []pfs.Extent
		var cur int64
		for i := 0; i+2 <= len(cuts); i += 2 {
			cur += int64(cuts[i]) * off / 1024
			if len(exts) > 0 {
				cur++ // a bucket's extents are canonical
			}
			e := pfs.Extent{Offset: cur, Length: (int64(cuts[i+1])+1)*off/256 + 1}
			exts = append(exts, e)
			cur = e.End()
			if len(exts) == 2 {
				buckets, exts = append(buckets, exts), nil
			}
		}
		if len(exts) > 0 {
			buckets = append(buckets, exts)
		}
		reqs := []RankRequest{{Rank: 0, Extents: list}, {Rank: 1, Extents: short}, {Rank: 2}}
		checkOverlapsNaive(t, NewExtentIndex(buckets), buckets, reqs, NewRequestSet(reqs))
	})
}

// TestPartialSumsAllocateOnce pins the totals' memory: a set of short
// lists allocates nothing for them, and a set with long lists one array
// of totals, sized before the first is stored, plus the per-list view.
func TestPartialSumsAllocateOnce(t *testing.T) {
	r := stats.NewRNG(5)
	short := make([]RankRequest, 16)
	long := make([]RankRequest, 16)
	for i := range short {
		short[i] = RankRequest{Rank: i, Extents: denseList(r, longList-1, 1)}
		long[i] = RankRequest{Rank: i, Extents: denseList(r, longList+i*100, 1)}
	}
	base := testing.AllocsPerRun(10, func() { NewRequestSet(short) })
	if rs := NewRequestSet(short); rs.partial != nil || rs.sums != nil {
		t.Fatalf("a set of short lists keeps totals")
	}
	if withLong := testing.AllocsPerRun(10, func() { NewRequestSet(long) }); withLong != base+2 {
		t.Fatalf("a set with long lists allocates %v times, a set without %v: want two more", withLong, base)
	}
	rs := NewRequestSet(long)
	if len(rs.sums) != cap(rs.sums) {
		t.Fatalf("%d totals in an array of %d: canonical lists fill it", len(rs.sums), cap(rs.sums))
	}
}
