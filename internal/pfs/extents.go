package pfs

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Extent is a contiguous range of file space.
type Extent struct {
	Offset int64
	Length int64
}

// End returns the first offset past the extent.
func (e Extent) End() int64 { return e.Offset + e.Length }

// Overlaps reports whether two extents share any byte.
func (e Extent) Overlaps(o Extent) bool {
	return e.Offset < o.End() && o.Offset < e.End()
}

// IsNormalized reports whether exts already is its own canonical form:
// every extent non-empty, ascending, and neither overlapping nor adjacent
// to its predecessor. Consumers that only read an extent list use this to
// skip the copy NormalizeExtents would make — most lists in the hot paths
// (plan domains, partition-tree leaves, generated requests) are built
// normalized.
func IsNormalized(exts []Extent) bool {
	for i, e := range exts {
		if e.Length <= 0 {
			return false
		}
		if i > 0 && e.Offset <= exts[i-1].End() {
			return false
		}
	}
	return true
}

// Normalized returns exts itself when already canonical, else a
// normalized copy. It is for read-only use: the result may alias the
// argument, so a caller that writes to it, or keeps it while the owner of
// exts may write, must use NormalizeExtents instead.
func Normalized(exts []Extent) []Extent {
	if IsNormalized(exts) {
		return exts
	}
	return NormalizeExtents(exts)
}

// NormalizeExtents sorts extents by offset and merges adjacent or
// overlapping ones, dropping empty extents. The result is the canonical
// minimal representation of the same byte set. It does not modify its
// argument.
func NormalizeExtents(exts []Extent) []Extent {
	var out []Extent
	for _, e := range exts {
		if e.Length < 0 {
			panic(fmt.Sprintf("pfs: negative extent length %d", e.Length))
		}
		if e.Length > 0 {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b Extent) int { return cmp.Compare(a.Offset, b.Offset) })
	merged := out[:0]
	for _, e := range out {
		if n := len(merged); n > 0 && e.Offset <= merged[n-1].End() {
			if e.End() > merged[n-1].End() {
				merged[n-1].Length = e.End() - merged[n-1].Offset
			}
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

// Union returns the canonical form of the concatenation of lists, exactly
// NormalizeExtents of it, without sorting the concatenation: each list is
// a sorted run (a list that is not canonical is normalized first), and the
// runs are merged pairwise, coalescing as they go. When the lists overlap
// or abut, as the per-rank lists of a collective usually do, every merge
// level is shorter than the last, so the cost follows the union's size
// rather than the total input's. The merge levels alternate between two
// scratch buffers that grow to the largest level's input, and only the
// result is allocated. It never aliases a caller's list, and the lists
// are not modified. Safe for concurrent use.
func Union(lists [][]Extent) []Extent {
	sc := getUnionScratch()
	defer putUnionScratch(sc)
	runs := slices.Grow(sc.runs[:0], len(lists))
	n := 0 // extents in runs
	for _, l := range lists {
		if l = Normalized(l); len(l) > 0 {
			runs = append(runs, l)
			n += len(l)
		}
	}
	// Drop the references to the caller's lists before the scratch is
	// reused. Merge levels only shrink runs, so nothing past used is ever
	// set: a small call after a large one clears only its own slots.
	used := len(runs)
	defer func() { clear(runs[:used]); sc.runs = runs[:0] }()
	if len(runs) == 0 {
		return nil
	}
	src, dst := sc.buf[0], sc.buf[1]
	for len(runs) > 1 {
		// A level's output is at most its input, so growing the buffers
		// to the input up front grows them at most once per level, by
		// the amount needed, instead of by append's repeated copies.
		dst, sc.ends = slices.Grow(dst[:0], n), slices.Grow(sc.ends[:0], (len(runs)+1)/2)
		for i := 0; i < len(runs); i += 2 {
			if i+1 < len(runs) {
				dst = mergeRuns(dst, runs[i], runs[i+1])
			} else {
				dst = append(dst, runs[i]...)
			}
			sc.ends = append(sc.ends, len(dst))
		}
		runs, n = runs[:len(sc.ends)], len(dst)
		for i, start := 0, 0; i < len(sc.ends); i++ {
			runs[i], start = dst[start:sc.ends[i]], sc.ends[i]
		}
		src, dst = dst, src
	}
	sc.buf = [2][]Extent{src, dst}
	return append([]Extent(nil), runs[0]...)
}

// unionScratch is Union's working memory, reused across calls.
type unionScratch struct {
	runs [][]Extent
	ends []int
	buf  [2][]Extent
}

// unionFree holds the idle scratches. Unlike a sync.Pool, a free list
// is never emptied by the garbage collector, so Union allocates the
// same bytes whenever a collection happens to run: a serial caller
// reuses one scratch for good, and concurrent callers each take their
// own, so parallel planning is not serialized. The list holds as many
// scratches as Union ever ran concurrently.
var unionFree struct {
	sync.Mutex
	idle []*unionScratch
}

func getUnionScratch() *unionScratch {
	unionFree.Lock()
	defer unionFree.Unlock()
	n := len(unionFree.idle)
	if n == 0 {
		return new(unionScratch)
	}
	sc := unionFree.idle[n-1]
	unionFree.idle[n-1] = nil
	unionFree.idle = unionFree.idle[:n-1]
	return sc
}

func putUnionScratch(sc *unionScratch) {
	unionFree.Lock()
	unionFree.idle = append(unionFree.idle, sc)
	unionFree.Unlock()
}

// ReleaseUnionScratch drops the idle scratches, so the calls that follow
// grow their working memory again as the first calls of a fresh process
// do. Scratches in use by running calls are kept.
func ReleaseUnionScratch() {
	unionFree.Lock()
	clear(unionFree.idle)
	unionFree.idle = unionFree.idle[:0]
	unionFree.Unlock()
}

// mergeRuns appends the canonical union of the canonical runs a and b to
// dst. The extents appended are in file order, so only the last one
// appended can touch or overlap the next. Once either run is spent, the
// rest of the other is coalesced only until one of its extents starts
// past the last appended end; from there on it is copied as it is.
func mergeRuns(dst, a, b []Extent) []Extent {
	start := len(dst)
	// absorb folds e into the last extent appended when they touch.
	absorb := func(e Extent) bool {
		n := len(dst)
		if n == start || e.Offset > dst[n-1].End() {
			return false
		}
		if e.End() > dst[n-1].End() {
			dst[n-1].Length = e.End() - dst[n-1].Offset
		}
		return true
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		e := b[j]
		if a[i].Offset <= e.Offset {
			e = a[i]
			i++
		} else {
			j++
		}
		if !absorb(e) {
			dst = append(dst, e)
		}
	}
	rest := a[i:]
	if j < len(b) {
		rest = b[j:]
	}
	for k, e := range rest {
		if !absorb(e) {
			return append(dst, rest[k:]...)
		}
	}
	return dst
}

// TotalBytes sums the lengths of the extents (assumed non-overlapping).
func TotalBytes(exts []Extent) int64 {
	var n int64
	for _, e := range exts {
		n += e.Length
	}
	return n
}

// SliceData returns the file extents covering the data-space byte range
// [dataOff, dataOff+n) of exts, where data space is the concatenation of
// the normalized extents in file order. This is how an aggregator cycles a
// file domain through a fixed-size collective buffer: round k covers data
// bytes [k*buf, (k+1)*buf).
func SliceData(exts []Extent, dataOff, n int64) []Extent {
	return SliceDataAppend(nil, exts, dataOff, n)
}

// SliceDataAppend is SliceData appending to a caller-owned slice, so a
// loop slicing many rounds reuses one allocation.
func SliceDataAppend(out []Extent, exts []Extent, dataOff, n int64) []Extent {
	if dataOff < 0 || n < 0 {
		panic(fmt.Sprintf("pfs: negative data slice (%d,%d)", dataOff, n))
	}
	if n == 0 {
		return out
	}
	var pos int64
	for _, e := range Normalized(exts) {
		if n <= 0 {
			break
		}
		if dataOff >= pos+e.Length {
			pos += e.Length
			continue
		}
		skip := dataOff - pos
		if skip < 0 {
			skip = 0
		}
		take := e.Length - skip
		if take > n {
			take = n
		}
		out = append(out, Extent{Offset: e.Offset + skip, Length: take})
		dataOff += take
		n -= take
		pos += e.Length
	}
	return out
}

// Intersect returns the bytes present in both extent sets, normalized.
// Inputs need not be normalized.
func Intersect(a, b []Extent) []Extent {
	na, nb := Normalized(a), Normalized(b)
	var out []Extent
	i, j := 0, 0
	for i < len(na) && j < len(nb) {
		lo := na[i].Offset
		if nb[j].Offset > lo {
			lo = nb[j].Offset
		}
		hi := na[i].End()
		if nb[j].End() < hi {
			hi = nb[j].End()
		}
		if hi > lo {
			out = append(out, Extent{Offset: lo, Length: hi - lo})
		}
		if na[i].End() < nb[j].End() {
			i++
		} else {
			j++
		}
	}
	return out
}

// Clip returns the part of the extents inside the window [lo, hi).
func Clip(exts []Extent, lo, hi int64) []Extent {
	if hi <= lo {
		return nil
	}
	return Intersect(exts, []Extent{{Offset: lo, Length: hi - lo}})
}

// Span returns the smallest extent covering all input extents, or the zero
// Extent when the input holds no bytes.
func Span(exts []Extent) Extent {
	norm := Normalized(exts)
	if len(norm) == 0 {
		return Extent{}
	}
	first, last := norm[0], norm[len(norm)-1]
	return Extent{Offset: first.Offset, Length: last.End() - first.Offset}
}

// TargetAccess summarizes the object-space traffic one set of file extents
// generates on a single target: the payload bytes, how many distinct
// object-space ranges (requests) it decomposes into after merging, and
// whether the access is one contiguous object range.
type TargetAccess struct {
	Target     int
	Bytes      int64
	Requests   int
	Contiguous bool
}

// MapExtents decomposes file-space extents into per-target accesses.
//
// With round-robin striping, one contiguous file extent larger than a full
// stripe cycle lands as one contiguous object-space range on every target —
// this is why two-phase I/O's large merged requests are cheap. Fragmented
// extents land as many small object ranges, each a separate request. The
// returned slice is sorted by target; targets untouched by the extents are
// absent.
//
// The decomposition is closed-form: one extent spanning stripe units
// [first, last] touches min(units, Targets) targets, and on each the
// units it owns (first+i, first+i+Targets, ...) occupy consecutive
// object-space stripe slots, so they form exactly one object range —
// trimmed at the extremes by the extent's partial head and tail units.
// The cost is O(targets touched) per extent, independent of extent
// length, which is what lets the analytical engine price exabyte-scale
// accesses. (mapExtentsByUnit is the per-unit walk this replaces, kept
// as the property-test oracle.)
func (c Config) MapExtents(exts []Extent) []TargetAccess {
	out := c.NewMapper().Map(exts)
	if out == nil {
		out = []TargetAccess{}
	}
	return out
}

// Mapper is MapExtents with reusable scratch: after warm-up a Map call
// allocates nothing, which matters to the analytical engine mapping one
// slice per domain per round — millions of calls at exascale. Not safe
// for concurrent use; the returned slice is overwritten by the next Map.
type Mapper struct {
	cfg     Config
	accs    []mapAcc
	touched []int
	out     []TargetAccess
}

type mapAcc struct {
	bytes    int64
	requests int
	lastEnd  int64
	active   bool
}

// NewMapper builds a Mapper for the configuration.
func (c Config) NewMapper() *Mapper {
	return &Mapper{cfg: c, accs: make([]mapAcc, c.Targets)}
}

// Map decomposes the extents exactly as MapExtents does.
func (m *Mapper) Map(exts []Extent) []TargetAccess {
	su := m.cfg.StripeUnit
	tn := int64(m.cfg.Targets)
	for _, e := range Normalized(exts) {
		off, end := e.Offset, e.End()
		firstUnit := off / su
		lastUnit := (end - 1) / su
		span := lastUnit - firstUnit + 1
		if span > tn {
			span = tn
		}
		for i := int64(0); i < span; i++ {
			// Units on this target: u1, u1+tn, ..., u2.
			u1 := firstUnit + i
			u2 := u1 + ((lastUnit-u1)/tn)*tn
			count := (u2-u1)/tn + 1
			var head, tail int64
			if u1 == firstUnit {
				head = off - firstUnit*su
			}
			if u2 == lastUnit {
				tail = (lastUnit+1)*su - end
			}
			a := &m.accs[u1%tn]
			if !a.active {
				a.active = true
				a.lastEnd = -1
				m.touched = append(m.touched, int(u1%tn))
			}
			a.bytes += count*su - head - tail
			// Ranges arrive in ascending object order (extents are
			// normalized and object offset is monotone in file offset per
			// target), so merging is a single adjacency check, exactly as
			// the per-unit walk's sort-and-merge would do.
			objStart := (u1/tn)*su + head
			if objStart > a.lastEnd {
				a.requests++
			}
			a.lastEnd = (u2/tn)*su + su - tail
		}
	}
	sort.Ints(m.touched)
	m.out = m.out[:0]
	for _, t := range m.touched {
		a := &m.accs[t]
		m.out = append(m.out, TargetAccess{
			Target:     t,
			Bytes:      a.bytes,
			Requests:   a.requests,
			Contiguous: a.requests == 1,
		})
		*a = mapAcc{}
	}
	m.touched = m.touched[:0]
	return m.out
}

// mapExtentsByUnit is the original stripe-unit-by-stripe-unit
// decomposition, O(bytes/StripeUnit) per extent. It survives as the
// oracle the closed-form MapExtents is property-tested against.
func (c Config) mapExtentsByUnit(exts []Extent) []TargetAccess {
	type objRange struct{ off, end int64 }
	perTarget := make(map[int][]objRange)
	su := c.StripeUnit
	for _, e := range Normalized(exts) {
		off, remaining := e.Offset, e.Length
		for remaining > 0 {
			target, objOff := c.stripeLoc(off)
			n := su - off%su
			if n > remaining {
				n = remaining
			}
			perTarget[target] = append(perTarget[target], objRange{objOff, objOff + n})
			off += n
			remaining -= n
		}
	}
	targets := make([]int, 0, len(perTarget))
	for t := range perTarget {
		targets = append(targets, t)
	}
	sort.Ints(targets)
	out := make([]TargetAccess, 0, len(targets))
	for _, t := range targets {
		ranges := perTarget[t]
		sort.Slice(ranges, func(i, j int) bool { return ranges[i].off < ranges[j].off })
		var merged []objRange
		var bytes int64
		for _, r := range ranges {
			bytes += r.end - r.off
			if n := len(merged); n > 0 && r.off <= merged[n-1].end {
				if r.end > merged[n-1].end {
					merged[n-1].end = r.end
				}
				continue
			}
			merged = append(merged, r)
		}
		out = append(out, TargetAccess{
			Target:     t,
			Bytes:      bytes,
			Requests:   len(merged),
			Contiguous: len(merged) == 1,
		})
	}
	return out
}
