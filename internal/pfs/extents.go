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
// runs are merged pairwise, coalescing as they go. Only the result is
// allocated; the merges work in scratch reused across calls. It never
// aliases a caller's list, and the lists are not modified. Safe for
// concurrent use.
func Union(lists [][]Extent) []Extent {
	return UnionNormalized(len(lists), func(i int) []Extent { return Normalized(lists[i]) })
}

// UnionNormalized is Union over n lists that are already canonical,
// list(i) returning the i-th: it merges them as they are, without
// checking them, so a caller that has checked its lists once (as
// collio.RequestSet does) does not pay for the check again. A list that
// is not canonical gives an unspecified result.
//
// The runs are merged in a balanced binary tree, depth first, as a
// binary counter: each list joins a stack of merged runs, and while the
// top two runs hold equally many lists they are merged into one. When
// the lists overlap or abut, as the per-rank lists of a collective
// usually do, each merge is shorter than its inputs, so the runs alive
// at any time stay small and the cost follows the union's size rather
// than the total input's. Merged runs live in one scratch arena used as
// a stack, and a merge whose inputs are in the arena first copies them
// aside, so the scratch stays near the largest merge rather than the
// whole input.
func UnionNormalized(n int, list func(i int) []Extent) []Extent {
	sc := getUnionScratch()
	defer putUnionScratch(sc)
	sc.arena = sc.arena[:0]
	stack := sc.stack[:0]
	// Drop the references to the caller's lists before the scratch is
	// reused.
	defer func() { clear(stack[:cap(stack)]); sc.stack = stack[:0] }()
	for i := 0; i < n; i++ {
		l := list(i)
		if len(l) == 0 {
			continue
		}
		stack = append(stack, unionRun{list: l})
		for k := len(stack); k >= 2 && stack[k-1].level == stack[k-2].level; k = len(stack) {
			stack = sc.mergeTop(stack)
		}
	}
	for len(stack) >= 2 {
		stack = sc.mergeTop(stack)
	}
	if len(stack) == 0 {
		return nil
	}
	return append([]Extent(nil), sc.runOf(stack[0])...)
}

// unionRun is one run on UnionNormalized's stack: a caller's list, or
// a merged run at arena[start:end]. level is the height of its merge
// tree: until the final merges, a run holds 2^level lists.
type unionRun struct {
	list       []Extent
	start, end int
	level      int
}

// runOf returns the extents of r.
func (sc *unionScratch) runOf(r unionRun) []Extent {
	if r.list != nil {
		return r.list
	}
	return sc.arena[r.start:r.end]
}

// mergeTop merges the top two runs of stack into one. Arena runs sit at
// the arena's end in stack order, so the merged run is written from the
// lower arena input's start, after the arena inputs are copied aside.
func (sc *unionScratch) mergeTop(stack []unionRun) []unionRun {
	x, y := stack[len(stack)-2], stack[len(stack)-1]
	a, b := sc.runOf(x), sc.runOf(y)
	base := len(sc.arena)
	sc.aside = sc.aside[:0]
	if x.list == nil {
		base = x.start
		sc.aside = append(sc.aside, a...)
	}
	if y.list == nil {
		base = min(base, y.start)
		sc.aside = append(sc.aside, b...)
	}
	if x.list == nil {
		a = sc.aside[:len(a)]
	}
	if y.list == nil {
		b = sc.aside[len(sc.aside)-len(b):]
	}
	sc.arena = mergeRuns(sc.arena[:base], a, b)
	stack = stack[:len(stack)-2]
	return append(stack, unionRun{start: base, end: len(sc.arena), level: x.level + 1})
}

// unionScratch is UnionNormalized's working memory, reused across calls.
type unionScratch struct {
	stack []unionRun
	arena []Extent
	aside []Extent
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
	if len(exts) != 1 || exts[0].Length <= 0 {
		// One extent of positive length is canonical already: the
		// round slices of a contiguous domain skip the check.
		exts = Normalized(exts)
	}
	var pos int64
	for _, e := range exts {
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
// generates on a run of targets: the payload bytes, how many distinct
// object-space ranges (requests) it decomposes into after merging, and
// whether the access is one contiguous object range. Count targets,
// Target through Target+Count-1, each see that same access.
type TargetAccess struct {
	Target     int
	Count      int
	Bytes      int64
	Requests   int
	Contiguous bool
}

// Mapper decomposes file-space extents into per-target accesses, as
// spans of consecutive targets that see the same access (TargetAccess
// with its Count). Targets untouched by the extents are absent.
//
// With round-robin striping, one contiguous file extent larger than a full
// stripe cycle lands as one contiguous object-space range on every target —
// this is why two-phase I/O's large merged requests are cheap. Fragmented
// extents land as many small object ranges, each a separate request.
//
// The decomposition is closed-form: one extent spanning stripe units
// [first, last] touches min(units, Targets) targets, and on each the
// units it owns (first+i, first+i+Targets, ...) occupy consecutive
// object-space stripe slots, so they form exactly one object range —
// trimmed at the extremes by the extent's partial head and tail units.
// The cost is independent of extent length, which is what lets the
// analytical engine price exabyte-scale accesses. (mapExtentsByUnit is
// the per-unit walk this replaces, kept as the property-test oracle.)
//
// A Mapper keeps reusable scratch: after warm-up a Map call allocates
// nothing, which matters to the analytical engine mapping one slice per
// domain per round — millions of calls at exascale. Not safe for
// concurrent use; the returned slice is overwritten by the next Map.
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

// Map decomposes the extents into spans: runs of consecutive targets,
// ascending and disjoint, each of whose targets sees the span's access.
// A single extent maps in closed
// form to at most five spans whatever its length, and to at most four
// when it touches no more stripe units than there are targets (see
// spanExtent); a list of several extents maps target by target into
// spans of one.
func (m *Mapper) Map(exts []Extent) []TargetAccess {
	if len(exts) != 1 || exts[0].Length <= 0 {
		exts = Normalized(exts) // one extent of positive length is canonical already
	}
	m.out = m.out[:0]
	if len(exts) == 1 {
		m.spanExtent(exts[0])
		return m.out
	}
	su := m.cfg.StripeUnit
	tn := int64(m.cfg.Targets)
	for _, e := range exts {
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
	for _, t := range m.touched {
		a := &m.accs[t]
		m.out = append(m.out, TargetAccess{
			Target:     t,
			Count:      1,
			Bytes:      a.bytes,
			Requests:   a.requests,
			Contiguous: a.requests == 1,
		})
		*a = mapAcc{}
	}
	m.touched = m.touched[:0]
	return m.out
}

// spanExtent maps one extent as spans. Offset i from the extent's first
// target, first%Targets, holds units first+i, first+i+Targets, ...: of
// the extent's n = q*Targets + r units, q+1 for i < r and q after, as
// one contiguous object range. The head unit (i = 0) and the tail unit
// (i = iTail, the last unit's offset) are trimmed, and iTail+1 = r
// whenever r > 0, so the offsets fall into four runs of equal access,
// [0,1), [1,iTail), [iTail,iTail+1) and [iTail+1,touched), some empty.
// The last is empty unless the extent touches more units than there
// are targets, so otherwise at most three runs are non-empty. Each run
// is split where it wraps to target 0, at i = Targets - first%Targets,
// which adds at most one span; wrapped pieces come first, so the spans
// ascend by target.
func (m *Mapper) spanExtent(e Extent) {
	su, tn := m.cfg.StripeUnit, int64(m.cfg.Targets)
	first, last := e.Offset/su, (e.End()-1)/su
	head, tail := e.Offset-first*su, (last+1)*su-e.End()
	n := last - first + 1
	q, r := int64(0), n
	if n >= tn {
		q, r = n/tn, n%tn
	}
	iTail := r - 1
	if r == 0 {
		iTail = tn - 1
	}
	touched, wrap := min(n, tn), tn-first%tn
	bounds := [...]int64{0, 1, max(iTail, 1), iTail + 1, touched}
	for _, wrapped := range [2]bool{true, false} {
		for k := 0; k+1 < len(bounds); k++ {
			a, b, t := bounds[k], bounds[k+1], int64(0)
			if wrapped {
				a = max(a, wrap)
				t = a - wrap
			} else {
				b = min(b, wrap)
				t = tn - wrap + a
			}
			if a >= b {
				continue
			}
			bytes := q * su
			if a < r {
				bytes += su
			}
			if a == 0 {
				bytes -= head
			}
			if a == iTail {
				bytes -= tail
			}
			if k := len(m.out); k > 0 {
				if p := &m.out[k-1]; p.Target+p.Count == int(t) && p.Bytes == bytes {
					p.Count += int(b - a)
					continue
				}
			}
			m.out = append(m.out, TargetAccess{Target: int(t), Count: int(b - a), Bytes: bytes, Requests: 1, Contiguous: true})
		}
	}
}

// mapExtentsByUnit is the original stripe-unit-by-stripe-unit
// decomposition, O(bytes/StripeUnit) per extent. It survives as the
// oracle the closed-form Mapper is property-tested against.
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
			Count:      1,
			Bytes:      bytes,
			Requests:   len(merged),
			Contiguous: len(merged) == 1,
		})
	}
	return out
}
