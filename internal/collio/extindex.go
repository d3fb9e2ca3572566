package collio

import (
	"fmt"
	"sort"

	"mcio/internal/pfs"
)

// ExtentIndex answers "how many bytes of this rank's request fall into
// each bucket" in one merge-walk per rank, where the buckets (file domains
// or partition-tree leaves) are disjoint and ascending in file order. The
// naive per-bucket intersection is O(buckets × extents) per rank, which is
// prohibitive for coll_perf-scale requests. The walk takes one step per
// run of request extents inside one bucket extent, one per extent that
// straddles a bucket boundary or lies in a gap, and one gallop per jump
// over bucket extents. On a list the request set keeps running totals
// for, a run is summed extent by extent for its first runProbe extents
// only; past them, the walk gallops to the run's end and takes the
// rest of its bytes from two of the totals.
type ExtentIndex struct {
	flat   []pfs.Extent // all bucket extents, ascending, disjoint
	bucket []int        // bucket id per flat extent
}

// NewExtentIndex builds an index over the buckets. Each bucket's extents
// must be normalized, and buckets must be disjoint and ascending (bucket
// i's last byte before bucket i+1's first) — which plan domains and
// partition-tree leaves are by construction. It panics otherwise, as that
// indicates a planner bug.
func NewExtentIndex(buckets [][]pfs.Extent) *ExtentIndex {
	idx := &ExtentIndex{}
	var prevEnd int64 = -1
	for b, exts := range buckets {
		for _, e := range exts {
			if e.Length <= 0 {
				panic(fmt.Sprintf("collio: bucket %d has empty extent", b))
			}
			if e.Offset < prevEnd {
				panic(fmt.Sprintf("collio: bucket %d extents overlap or are out of order", b))
			}
			prevEnd = e.End()
			idx.flat = append(idx.flat, e)
			idx.bucket = append(idx.bucket, b)
		}
	}
	return idx
}

// BucketBytes is one bucket's overlap with a request.
type BucketBytes struct {
	Bucket int
	Bytes  int64
}

// RequestOverlapAppend appends the non-zero overlaps of request i of rs
// with the buckets to dst, ascending by bucket id, and returns the
// extended slice. The result is sparse: a request touching a handful of
// the index's buckets costs O(extents + touched), not the O(buckets)
// clear of a dense row with one entry per bucket — the difference
// between pricing a million-rank operation and timing out on it. The
// set has already checked the list, so it is walked as it is.
func (x *ExtentIndex) RequestOverlapAppend(dst []BucketBytes, rs *RequestSet, i int) []BucketBytes {
	norm, sums := rs.List(i), rs.partialSums(i)
	base := len(dst)
	i, j := 0, 0
	for i < len(norm) && j < len(x.flat) {
		a := norm[i]
		if x.flat[j].End() <= a.Offset {
			// Gallop past the bucket extents wholly before this request
			// extent: a sparse request touching k of n flat extents costs
			// O(k log n), not the O(n) of stepping one extent at a time —
			// which is what keeps shape-building linear in ranks when a
			// million sparse requests query a hundred-thousand-extent index.
			j += sort.Search(len(x.flat)-j, func(k int) bool { return x.flat[j+k].End() > a.Offset })
			continue
		}
		b, bk := x.flat[j], x.bucket[j]
		var n int64
		if bEnd := b.End(); a.Offset >= b.Offset && a.End() <= bEnd {
			// A run of request extents inside the bucket extent: each
			// lies wholly in it, so its bytes are the run's summed
			// lengths. Past its first runProbe extents, a run of a list
			// with stored totals is galloped over instead of summed.
			n = a.Length
			start := i
			for i++; i < len(norm) && norm[i].End() <= bEnd; i++ {
				if i-start == runProbe && sums != nil {
					var m int64
					m, i = gallopRun(norm, sums, i, bEnd)
					n += m
					break
				}
				n += norm[i].Length
			}
		} else {
			n = min(a.End(), bEnd) - max(a.Offset, b.Offset)
			if a.End() < bEnd {
				i++
			} else {
				j++
			}
		}
		if n > 0 {
			// A bucket's flat extents are contiguous and j only advances,
			// so hits for one bucket are consecutive: accumulate in place.
			if len(dst) > base && dst[len(dst)-1].Bucket == bk {
				dst[len(dst)-1].Bytes += n
			} else {
				dst = append(dst, BucketBytes{Bucket: bk, Bytes: n})
			}
		}
	}
	return dst
}

// runProbe is how many extents of a run the walk sums one by one
// before it gallops: the one- and two-extent runs of contiguous requests
// end within it, at the cost of the plain loop.
const runProbe = 8

// gallopRun returns the bytes of the run of list's extents from i that
// end at or before end (list[i] does), and the index past the run, given
// list's running totals (RequestSet.partialSums). It doubles its step
// while the extent the step lands on is still in the run, then searches
// the last step for the run's end. A run longer than a stride is the
// difference of two prefix totals.
func gallopRun(list []pfs.Extent, sums []int64, i int, end int64) (int64, int) {
	lo, step := i, 1
	for lo+step < len(list) && list[lo+step].End() <= end {
		lo += step
		step *= 2
	}
	hi := min(lo+step, len(list))
	stop := lo + sort.Search(hi-lo, func(k int) bool { return list[lo+k].End() > end })
	if stop-i <= partialSumStride {
		return pfs.TotalBytes(list[i:stop]), stop
	}
	return prefixBytes(list, sums, stop) - prefixBytes(list, sums, i), stop
}

// prefixBytes returns the bytes of list[:k] from the stored total
// nearest k, adding or subtracting at most half a stride of extents.
func prefixBytes(list []pfs.Extent, sums []int64, k int) int64 {
	q, r := k/partialSumStride, k%partialSumStride
	if r > partialSumStride/2 && q < len(sums) {
		return sums[q] - pfs.TotalBytes(list[k:(q+1)*partialSumStride])
	}
	var n int64
	if q > 0 {
		n = sums[q-1]
	}
	return n + pfs.TotalBytes(list[q*partialSumStride:k])
}

// overlapBytes returns the bytes two canonical extent lists share: a
// two-pointer walk that gallops past the extents of either list wholly
// before the other's current one, and allocates nothing.
func overlapBytes(a, b []pfs.Extent) int64 {
	var n int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].End() <= b[j].Offset:
			i += sort.Search(len(a)-i, func(k int) bool { return a[i+k].End() > b[j].Offset })
		case b[j].End() <= a[i].Offset:
			j += sort.Search(len(b)-j, func(k int) bool { return b[j+k].End() > a[i].Offset })
		default:
			n += min(a[i].End(), b[j].End()) - max(a[i].Offset, b[j].Offset)
			if a[i].End() < b[j].End() {
				i++
			} else {
				j++
			}
		}
	}
	return n
}
