package collio

import (
	"cmp"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mcio/internal/pfs"
)

// RequestSet is one collective call's request lists, checked once. A
// sweep plans, validates and prices the same requests many times —
// every memory point, every strategy, both directions — and each of
// those consumers used to re-derive the same facts from the raw lists:
// whether each is canonical, their union, their byte total. A set
// derives them once and every consumer reads them: the planners, the
// plan's validation and the shape build.
//
// NewRequestSet checks every list at construction. Canonical lists (as
// generated workloads produce) are read in place; only a list that is
// not canonical gets a normalized copy, so an all-canonical set holds
// nothing per rank. The union is computed on first use. A set never
// changes after construction and is safe for concurrent use, so
// parallel sweep cells share one.
//
// The set aliases the caller's lists: they must not be modified while
// the set is in use.
type RequestSet struct {
	reqs []RankRequest
	// lists[i] is request i's canonical list, when some list is not
	// canonical; nil when every list is, and reqs[i].Extents is read.
	lists [][]pfs.Extent
	// bytes sums the canonical lists' bytes over all requests.
	bytes int64
	// minRank and maxRank bound the requests' ranks (both zero for no
	// requests); ranksInOrder means reqs[i].Rank == i for every i.
	minRank, maxRank int
	ranksInOrder     bool
	// neg is the first negative-length extent in request order, with
	// negRank its request's rank; hasNeg reports whether there is one.
	neg     pfs.Extent
	negRank int
	hasNeg  bool

	unionOnce sync.Once
	union     []pfs.Extent
	rankOnce  sync.Once
	// byRank lists the request indices ordered by rank, then index,
	// when the ranks are not in order; built on first use.
	byRank   []int32
	dataOnce sync.Once
	withData []int
}

// NewRequestSet checks every request list once and wraps them. A list
// holding a negative-length extent is read as the canonical form of its
// other extents; the first such extent is kept for Plan.ValidateSet to
// report.
func NewRequestSet(reqs []RankRequest) *RequestSet {
	s := &RequestSet{reqs: reqs, ranksInOrder: true}
	for i, r := range reqs {
		if i == 0 || r.Rank < s.minRank {
			s.minRank = r.Rank
		}
		if i == 0 || r.Rank > s.maxRank {
			s.maxRank = r.Rank
		}
		s.ranksInOrder = s.ranksInOrder && r.Rank == i
		if bytes, ok := canonicalBytes(r.Extents); ok {
			s.bytes += bytes
			if s.lists != nil {
				s.lists[i] = r.Extents
			}
			continue
		}
		if s.lists == nil {
			s.lists = make([][]pfs.Extent, len(reqs))
			for j := range i {
				s.lists[j] = reqs[j].Extents
			}
		}
		exts := r.Extents
		if k := slices.IndexFunc(exts, func(e pfs.Extent) bool { return e.Length < 0 }); k >= 0 {
			if !s.hasNeg {
				s.neg, s.negRank, s.hasNeg = exts[k], r.Rank, true
			}
			exts = slices.DeleteFunc(slices.Clone(exts), func(e pfs.Extent) bool { return e.Length < 0 })
		}
		s.lists[i] = pfs.NormalizeExtents(exts)
		s.bytes += pfs.TotalBytes(s.lists[i])
	}
	return s
}

// canonicalBytes returns the bytes of exts and true when exts is
// canonical (pfs.IsNormalized), else false.
func canonicalBytes(exts []pfs.Extent) (int64, bool) {
	var bytes int64
	for k, e := range exts {
		if e.Length <= 0 || (k > 0 && e.Offset <= exts[k-1].End()) {
			return 0, false
		}
		bytes += e.Length
	}
	return bytes, true
}

// Len returns the number of requests.
func (s *RequestSet) Len() int { return len(s.reqs) }

// Rank returns request i's rank.
func (s *RequestSet) Rank(i int) int { return s.reqs[i].Rank }

// List returns request i's extents in canonical form (pfs.IsNormalized).
// It is read-only: it may be the caller's own list.
func (s *RequestSet) List(i int) []pfs.Extent {
	if s.lists != nil {
		return s.lists[i]
	}
	return s.reqs[i].Extents
}

// TotalBytes returns the sum of every request's bytes; ranks requesting
// the same bytes count them each.
func (s *RequestSet) TotalBytes() int64 { return s.bytes }

// InvalidRank returns the first rank of rs, in request order, that ctx's
// topology does not have; ok is false when every rank is in range.
func InvalidRank(ctx *Context, rs *RequestSet) (rank int, ok bool) {
	if rs.minRank >= 0 && rs.maxRank < ctx.Topo.Size() {
		return 0, false
	}
	for _, r := range rs.reqs {
		if r.Rank < 0 || r.Rank >= ctx.Topo.Size() {
			return r.Rank, true
		}
	}
	return 0, false
}

// RanksWithData lists, in request order, the ranks of the set whose
// request names any extent, derived on first use. The list is shared
// by every caller, as the one group of the planners that divide no
// groups, and must not be modified; its capacity is capped, so an
// append copies it.
func (s *RequestSet) RanksWithData() []int {
	s.dataOnce.Do(func() {
		ranks := make([]int, 0, len(s.reqs))
		for _, r := range s.reqs {
			if len(r.Extents) > 0 {
				ranks = append(ranks, r.Rank)
			}
		}
		s.withData = slices.Clip(ranks)
	})
	return s.withData
}

// IndexOfRank returns the index of the last request for rank, or -1 when
// the rank requests nothing.
func (s *RequestSet) IndexOfRank(rank int) int {
	lo, hi := s.rankRequests(rank)
	if lo == hi {
		return -1
	}
	return s.byRankAt(hi - 1)
}

// rankRequests returns the run [lo, hi) of the set's by-rank order that
// holds rank's requests: byRankAt(k) for k in the run is each of their
// indices, ascending.
func (s *RequestSet) rankRequests(rank int) (lo, hi int) {
	if s.ranksInOrder {
		if uint(rank) < uint(len(s.reqs)) {
			return rank, rank + 1
		}
		return 0, 0
	}
	s.rankOnce.Do(func() {
		s.byRank = make([]int32, len(s.reqs))
		for i := range s.byRank {
			s.byRank[i] = int32(i)
		}
		slices.SortStableFunc(s.byRank, func(a, b int32) int { return cmp.Compare(s.reqs[a].Rank, s.reqs[b].Rank) })
	})
	rankAt := func(k int) int { return s.reqs[s.byRank[k]].Rank }
	lo = sort.Search(len(s.byRank), func(k int) bool { return rankAt(k) >= rank })
	hi = lo + sort.Search(len(s.byRank)-lo, func(k int) bool { return rankAt(lo+k) > rank })
	return lo, hi
}

// byRankAt returns the request index at position k of the set's by-rank
// order.
func (s *RequestSet) byRankAt(k int) int {
	if s.ranksInOrder {
		return k
	}
	return int(s.byRank[k])
}

// NegativeExtent returns the first extent of negative length in request
// order and its request's rank; ok is false when there is none.
func (s *RequestSet) NegativeExtent() (rank int, e pfs.Extent, ok bool) {
	return s.negRank, s.neg, s.hasNeg
}

// Union returns the canonical union of every request's extents,
// pfs.Union of the lists, computed on first use. It is shared by every
// caller and must not be modified.
func (s *RequestSet) Union() []pfs.Extent {
	s.unionOnce.Do(func() {
		s.union = pfs.UnionNormalized(len(s.reqs), s.List)
		requestUnions.Add(1)
	})
	return s.union
}

// requestUnions counts the unions request sets have computed.
var requestUnions atomic.Int64

// RequestUnions returns how many request unions this process has
// computed: one per set whose union was read. A sweep that shares one
// set across its cells adds one, where building a set per call adds
// one per planner and per validation.
func RequestUnions() int64 { return requestUnions.Load() }
