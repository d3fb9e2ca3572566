package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"mcio/internal/collio"
	"mcio/internal/pfs"
)

// Group is one aggregation group: a contiguous window of the file whose
// aggregation traffic is confined to the member ranks (§3.1). Groups are
// disjoint and together cover the whole aggregate access region.
type Group struct {
	Index int
	// Region is the file window [Region.Offset, Region.End()).
	Region pfs.Extent
	// Extents is the requested data inside the window, normalized.
	Extents []pfs.Extent
	// Ranks are the members: every rank with data inside the window,
	// ascending.
	Ranks []int
}

// DivideGroups splits the aggregate I/O workload into aggregation groups
// of roughly MsgGroup data bytes each.
//
// The boundary rule follows §3.1 and Figure 4: a tentative boundary is
// placed after MsgGroup data bytes ("an offset calculation guided by the
// optimal group message size"); when the data of some compute node
// straddles the tentative boundary, the boundary is extended to the ending
// offset of the data accessed by the last process of that node, so that
// "processes from the same physical node become I/O aggregators for
// different groups" is avoided. For interleaved patterns, where every
// node's data spans nearly the whole file and such an extension would
// swallow it (the paper defers these to file-view analysis), the extension
// is capped at half a group: boundaries fall back to pure offset
// calculation, dividing the file region into MsgGroup-sized windows.
//
// Deprecated: build one set with collio.NewRequestSet and call
// DivideGroupsSet.
func DivideGroups(ctx *collio.Context, reqs []collio.RankRequest) []Group {
	return DivideGroupsSet(ctx, collio.NewRequestSet(reqs))
}

// DivideGroupsSet is DivideGroups for the requests of rs, reading their
// shared union. Every list it returns is built once, at its final size.
func DivideGroupsSet(ctx *collio.Context, rs *collio.RequestSet) []Group {
	norm := rs.Union()
	if len(norm) == 0 {
		return nil
	}

	// Per-node data span (lowest start, highest end over the node's ranks).
	type span struct{ lo, hi int64 }
	nodeSpan := make([]span, ctx.Topo.Nodes())
	for i := range nodeSpan {
		nodeSpan[i] = span{lo: math.MaxInt64, hi: math.MinInt64}
	}
	for i := range rs.Len() {
		if exts := rs.List(i); len(exts) > 0 {
			s := &nodeSpan[ctx.Topo.NodeOf(rs.Rank(i))]
			s.lo = min(s.lo, exts[0].Offset)
			s.hi = max(s.hi, exts[len(exts)-1].End())
		}
	}
	reach := nodeSpan[:0] // the nodes with data
	for _, s := range nodeSpan {
		if s.lo < s.hi {
			reach = append(reach, s)
		}
	}
	// The Fig 4 extension at boundary b is the highest end of the spans
	// straddling b. Sorted by start, the spans starting before b are a
	// prefix, and the prefix maximum of their ends answers it: when that
	// maximum lies past b, it is the end of a straddling span, and no
	// span straddles b otherwise. So each boundary costs one binary
	// search instead of a scan over every node.
	slices.SortFunc(reach, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for k := 1; k < len(reach); k++ {
		reach[k].hi = max(reach[k].hi, reach[k-1].hi)
	}

	// Prefix sums over the aggregate extents turn the per-group "take
	// MsgGroup data bytes" boundary calculation into a binary search, and
	// window clipping into an index walk — O(log n) per group instead of
	// re-clipping the whole remaining region, which is what lets group
	// division run at million-rank scale.
	prefix := make([]int64, len(norm)+1)
	for i, e := range norm {
		prefix[i+1] = prefix[i] + e.Length
	}
	total := prefix[len(norm)]
	// dataAt returns the data-space position of file offset x: the
	// requested bytes strictly before x.
	dataAt := func(x int64) int64 {
		i := sort.Search(len(norm), func(i int) bool { return norm[i].End() > x })
		if i == len(norm) {
			return total
		}
		d := prefix[i]
		if x > norm[i].Offset {
			d += x - norm[i].Offset
		}
		return d
	}
	// clipRange is pfs.Clip(norm, lo, hi) via binary search on the
	// already-normalized aggregate extents.
	clipRange := func(lo, hi int64) []pfs.Extent {
		i := sort.Search(len(norm), func(i int) bool { return norm[i].End() > lo })
		var out []pfs.Extent
		for ; i < len(norm) && norm[i].Offset < hi; i++ {
			o, e := norm[i].Offset, norm[i].End()
			if o < lo {
				o = lo
			}
			if e > hi {
				e = hi
			}
			out = append(out, pfs.Extent{Offset: o, Length: e - o})
		}
		return out
	}

	msgGroup := ctx.Params.MsgGroup
	end := norm[len(norm)-1].End()
	var groups []Group
	cur := norm[0].Offset
	for cur < end {
		// Tentative boundary after MsgGroup data bytes: locate the extent
		// where the cumulative request data from cur reaches msgGroup.
		b := end
		if target := dataAt(cur) + msgGroup; target < total {
			j := sort.Search(len(norm), func(i int) bool { return prefix[i+1] >= target })
			b = norm[j].Offset + (target - prefix[j])
		}
		if b < end {
			// Fig 4 extension: snap to the ending offset of the data of any
			// node straddling the boundary, unless that extension exceeds
			// half a group (interleaved pattern guard).
			var ext int64
			if k := sort.Search(len(reach), func(k int) bool { return reach[k].lo >= b }); k > 0 && reach[k-1].hi > b {
				ext = reach[k-1].hi
			}
			if ext > b && ext-b <= msgGroup/2 {
				b = ext
			}
			if b > end {
				b = end
			}
		}
		groups = append(groups, Group{
			Index:   len(groups),
			Region:  pfs.Extent{Offset: cur, Length: b - cur},
			Extents: clipRange(cur, b),
		})
		cur = b
	}

	// Membership: an extent belongs to exactly the windows its [Offset,
	// End) range overlaps. A rank enters a window's list once per run of
	// its extents there (the adjacent-duplicate test); the sort and dedup
	// below drop the rest. Each step of the walk takes one extent's
	// windows and skips the run of extents ending inside its last window
	// (windowRange), so a rank costs one step per window it reaches, not
	// one per extent. The lists are counted before they are
	// filled: two passes of the same window walk, the counting pass
	// applying the same test, so each count is exact and the fill pass
	// writes into one backing array carved per window. ends[w] is window
	// w's end: the windows tile [norm[0].Offset, end).
	ends := make([]int64, len(groups))
	for w, g := range groups {
		ends[w] = g.Region.End()
	}
	counts := make([]int, len(groups))
	last := make([]int, len(groups))
	for i := range rs.Len() {
		rank, exts := rs.Rank(i), rs.List(i)
		for k := 0; k < len(exts); {
			w, wj, next := windowRange(ends, exts, k)
			for ; w <= wj; w++ {
				if counts[w] == 0 || last[w] != rank {
					counts[w]++
					last[w] = rank
				}
			}
			k = next
		}
	}
	n := 0
	for _, c := range counts {
		n += c
	}
	backing := make([]int, n)
	off := 0
	for w, c := range counts {
		if c > 0 {
			groups[w].Ranks = backing[off : off : off+c]
		}
		off += c
	}
	for i := range rs.Len() {
		rank, exts := rs.Rank(i), rs.List(i)
		for k := 0; k < len(exts); {
			w, wj, next := windowRange(ends, exts, k)
			for ; w <= wj; w++ {
				if r := groups[w].Ranks; len(r) == 0 || r[len(r)-1] != rank {
					groups[w].Ranks = append(r, rank)
				}
			}
			k = next
		}
	}
	for i := range groups {
		r := groups[i].Ranks
		sort.Ints(r)
		dedup := r[:0]
		for j, rank := range r {
			if j == 0 || rank != dedup[len(dedup)-1] {
				dedup = append(dedup, rank)
			}
		}
		groups[i].Ranks = dedup
	}
	return groups
}

// windowRange returns the first and last window that extent k of the
// canonical list exts overlaps, given the windows' ascending ends, and
// next, the index of the first later extent ending past window last
// (len(exts) when none does). The extents in between lie inside window
// last, whose list already holds the rank, so they add no member: the
// membership walk calls windowRange once per run of a rank's extents,
// not once per extent. The second window search runs only when extent
// k reaches past its first window. The run is skipped by an exponential
// probe and then a binary search of the bracket it finds: O(log m) for
// a run of m extents, and one comparison when the run is empty, as on
// lists of one or two extents.
func windowRange(ends []int64, exts []pfs.Extent, k int) (first, last, next int) {
	e := exts[k]
	first, last = windowOf(ends, e.Offset), 0
	if ends[first] >= e.End() {
		last = first
	} else {
		last = first + 1 + windowOf(ends[first+1:], e.End()-1)
	}
	end := ends[last]
	lo, hi := k+1, k+1 // every extent before lo ends at or before end
	for step := 1; hi < len(exts) && exts[hi].End() <= end; step <<= 1 {
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, len(exts))
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if exts[h].End() <= end {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return first, last, lo
}

// windowOf returns the index of the first end past x: the window holding
// file offset x. It is sort.Search over a dense slice, written out so
// the million-extent membership walk pays no call per probe.
func windowOf(ends []int64, x int64) int {
	lo, hi := 0, len(ends)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if ends[h] <= x {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}
