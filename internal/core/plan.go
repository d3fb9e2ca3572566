package core

import (
	"fmt"
	"slices"
	"sort"

	"mcio/internal/collio"
	"mcio/internal/memmodel"
	"mcio/internal/obs"
	"mcio/internal/pfs"
)

// Strategy is the memory-conscious collective I/O planner.
type Strategy struct{}

// New returns the memory-conscious strategy.
func New() *Strategy { return &Strategy{} }

// Name implements collio.Strategy.
func (s *Strategy) Name() string { return "memory-conscious" }

// Plan implements collio.Strategy: PlanSet over a set built from reqs.
//
// Deprecated: build one set with collio.NewRequestSet and call PlanSet.
func (s *Strategy) Plan(ctx *collio.Context, reqs []collio.RankRequest) (*collio.Plan, error) {
	return s.PlanSet(ctx, collio.NewRequestSet(reqs))
}

// PlanSet implements collio.Strategy. It runs the four components of §3
// in order: aggregation group division, workload partition, portion
// remerging, and aggregator location.
func (s *Strategy) PlanSet(ctx *collio.Context, rs *collio.RequestSet) (*collio.Plan, error) {
	plan, _, err := s.PlanWithStateSet(ctx, rs)
	return plan, err
}

// PlanWithState is PlanWithStateSet over a set built from reqs.
//
// Deprecated: build one set with collio.NewRequestSet and call
// PlanWithStateSet.
func (s *Strategy) PlanWithState(ctx *collio.Context, reqs []collio.RankRequest) (*collio.Plan, *RecoveryState, error) {
	return s.PlanWithStateSet(ctx, collio.NewRequestSet(reqs))
}

// PlanWithStateSet is PlanSet plus the recovery state a Failover handler
// needs to remerge domains mid-operation: the partition trees, the leaf
// each domain came from, and the live memory tracker.
func (s *Strategy) PlanWithStateSet(ctx *collio.Context, rs *collio.RequestSet) (*collio.Plan, *RecoveryState, error) {
	if err := ctx.Validate(); err != nil {
		return nil, nil, err
	}
	if rank, ok := collio.InvalidRank(ctx, rs); ok {
		return nil, nil, fmt.Errorf("core: request for invalid rank %d", rank)
	}
	// Determine the effective Msg_ind for this machine state, as §3's
	// parameter-determination step does: a file domain must be backed by
	// an aggregation buffer, so the domain count cannot usefully exceed
	// the aggregator slots the available memory supports (at most N_ah
	// per node, one CollBufSize buffer each). Planning with a smaller
	// Msg_ind would only trigger immediate remerging or over-commit.
	effCtx := *ctx
	effCtx.Params = capacityParams(ctx, rs)
	ctx = &effCtx

	groups := DivideGroupsSet(ctx, rs)
	plan := &collio.Plan{Strategy: s.Name(), Groups: len(groups)}
	state := &RecoveryState{
		leafDomain: make(map[*TreeNode]int),
		down:       make(map[int]bool),
	}
	if len(groups) == 0 {
		plan.GroupRanks = [][]int{}
		state.groupRanks = plan.GroupRanks
		collio.RecordPlanMetrics(ctx.Obs, plan)
		return plan, state, nil
	}

	// Aggregator bookkeeping spans groups: a host's N_ah budget and its
	// available memory are machine-wide resources.
	tracker := memmodel.NewTrackerFromAvail(ctx.Avail)
	tracker.SetObserver(ctx.Obs)
	memmodel.RecordAvailability(ctx.Obs, ctx.Avail[:ctx.Topo.Nodes()])
	aggsOnHost := make(map[int]int)
	strategyLabel := obs.L("strategy", s.Name())
	var sc contribScratch

	for _, g := range groups {
		plan.GroupRanks = append(plan.GroupRanks, g.Ranks)
		tree, err := BuildTree(g.Extents, ctx.Params.MsgInd)
		if err != nil {
			return nil, nil, err
		}
		if ctx.Obs != nil {
			ctx.Obs.Histogram("plan.group_bytes", strategyLabel).Observe(float64(pfs.TotalBytes(g.Extents)))
			ctx.Obs.Histogram("plan.tree_leaves", strategyLabel).Observe(float64(len(tree.Leaves())))
		}
		domains, leaves, err := s.placeGroup(ctx, tree, g, rs, tracker, aggsOnHost, &sc)
		if err != nil {
			return nil, nil, err
		}
		state.trees = append(state.trees, tree)
		for i := range domains {
			di := len(plan.Domains) + i
			state.domainLeaf = append(state.domainLeaf, leaves[i])
			state.leafDomain[leaves[i]] = di
			state.domainGroup = append(state.domainGroup, g.Index)
		}
		plan.Domains = append(plan.Domains, domains...)
	}
	state.groupRanks = plan.GroupRanks
	state.tracker = tracker
	collio.RecordPlanMetrics(ctx.Obs, plan)
	return plan, state, nil
}

// placeGroup assigns an aggregator to every leaf of the group's partition
// tree, remerging leaves whose candidate hosts cannot satisfy Mem_min
// (§3.2-3.3). It returns the group's domains in file order, along with
// the tree leaf each domain was placed on (for mid-operation failover).
// Each leaf's contributions are computed once; a remerge merges the
// victim's into the absorber's.
func (s *Strategy) placeGroup(
	ctx *collio.Context,
	tree *PartitionTree,
	g Group,
	rs *collio.RequestSet,
	tracker *memmodel.Tracker,
	aggsOnHost map[int]int,
	sc *contribScratch,
) ([]collio.Domain, []*TreeNode, error) {
	placed := make(map[*TreeNode]*collio.Domain)
	sc.contributions(g, rs, tree.Leaves())

	for {
		progressed := false
		for _, leaf := range tree.Leaves() {
			if _, done := placed[leaf]; done {
				continue
			}
			contribs := sc.lists[leaf]
			host, rank, ok := s.locate(ctx, contribs, tracker, aggsOnHost)
			if ok {
				buf := ctx.Params.CollBufSize
				if avail := tracker.Avail(host); avail < buf {
					// Adapt the buffer to what the host really has — the
					// memory-conscious move that avoids paging entirely.
					buf = avail
				}
				if buf > leaf.Bytes {
					buf = leaf.Bytes
				}
				if buf < 1 {
					buf = 1
				}
				tracker.Reserve(host, buf)
				aggsOnHost[host]++
				placed[leaf] = &collio.Domain{
					Extents:     leaf.Extents,
					Bytes:       leaf.Bytes,
					Group:       g.Index,
					Aggregator:  rank,
					AggNode:     host,
					BufferBytes: buf,
				}
				progressed = true
				continue
			}
			// No related host can satisfy Mem_min: merge this portion into
			// the neighbouring domain and keep inspecting (§3.3).
			absorber, err := tree.Remerge(leaf)
			if err == nil {
				ctx.Obs.Counter("plan.remerges", obs.L("strategy", s.Name())).Inc()
			}
			if err != nil {
				// leaf is the group's only domain: nothing to merge with.
				// Fall back to the least-bad host — a real system must
				// still perform the I/O — and record the over-commit so
				// the cost model charges the paging it causes.
				host, rank, ferr := s.fallback(ctx, contribs, g, tracker)
				if ferr != nil {
					return nil, nil, ferr
				}
				ctx.Obs.Counter("plan.fallback_placements", obs.L("strategy", s.Name())).Inc()
				buf, severity := pagedBuffer(ctx.Params.CollBufSize, leaf.Bytes, tracker.Avail(host))
				tracker.Reserve(host, buf)
				aggsOnHost[host]++
				placed[leaf] = &collio.Domain{
					Extents:       leaf.Extents,
					Bytes:         leaf.Bytes,
					Group:         g.Index,
					Aggregator:    rank,
					AggNode:       host,
					BufferBytes:   buf,
					PagedSeverity: severity,
				}
				progressed = true
				continue
			}
			sc.remerge(absorber, leaf)
			if dom, ok := placed[absorber]; ok {
				// The absorbing domain was already placed (Fig 5b with a
				// left neighbour): its region simply grows.
				dom.Extents = absorber.Extents
				dom.Bytes = absorber.Bytes
			}
			progressed = true
			break // leaf set changed; re-enumerate
		}
		// Check completion: every current leaf placed.
		allDone := true
		for _, leaf := range tree.Leaves() {
			if _, done := placed[leaf]; !done {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		if !progressed {
			return nil, nil, fmt.Errorf("core: placement made no progress in group %d", g.Index)
		}
	}

	leaves := tree.Leaves()
	out := make([]collio.Domain, 0, len(leaves))
	for _, leaf := range leaves {
		dom := placed[leaf]
		if dom == nil {
			return nil, nil, fmt.Errorf("core: leaf left unplaced in group %d", g.Index)
		}
		out = append(out, *dom)
	}
	return out, leaves, nil
}

// capacityParams raises Msg_ind (and, transitively, Msg_group) so the
// workload's domain count fits the aggregator slots the current
// availability can host: slots = Σ_nodes min(N_ah, avail/CollBufSize).
func capacityParams(ctx *collio.Context, rs *collio.RequestSet) collio.Params {
	p := ctx.Params
	total := rs.TotalBytes()
	if total == 0 {
		return p
	}
	var slots int64
	for node := 0; node < ctx.Topo.Nodes(); node++ {
		perNode := ctx.Avail[node] / p.CollBufSize
		if perNode > int64(p.Nah) {
			perNode = int64(p.Nah)
		}
		slots += perNode
	}
	if slots < 1 {
		slots = 1
	}
	if floor := total / slots; p.MsgInd < floor {
		p.MsgInd = floor
	}
	if p.MsgGroup < p.MsgInd {
		p.MsgGroup = p.MsgInd
	}
	return p
}

// rankContribution records how many bytes of one rank's request fall in a
// file domain.
type rankContribution struct {
	rank  int
	bytes int64
}

// contribScratch is the reusable storage of a plan's contributions,
// shared by every group, so it grows to the largest group instead of
// being allocated per group. lists maps each live leaf of the group
// being placed to its contributions; they live in backing, which
// remerges extend.
type contribScratch struct {
	overlaps []collio.BucketBytes
	listed   []leafContribution
	backing  []rankContribution
	counts   []int
	buckets  [][]pfs.Extent
	lists    map[*TreeNode][]rankContribution
}

// leafContribution is one rank's bytes in the leaf with index leaf.
type leafContribution struct {
	leaf int
	rankContribution
}

// contributions computes, for the group's leaves, each contributing
// rank's bytes per leaf, in one sparse walk per member rank, into
// sc.lists: each leaf's list is in rank order, in its own stretch of
// backing, and replaces the previous group's.
func (sc *contribScratch) contributions(g Group, rs *collio.RequestSet, leaves []*TreeNode) {
	if sc.lists == nil {
		sc.lists = make(map[*TreeNode][]rankContribution, len(leaves))
	}
	clear(sc.lists)
	sc.backing = sc.backing[:0]
	if len(leaves) == 0 {
		return
	}
	sc.buckets = sc.buckets[:0]
	for _, l := range leaves {
		sc.buckets = append(sc.buckets, l.Extents)
	}
	index := collio.NewExtentIndex(sc.buckets)
	clear(sc.buckets) // drop the references to the leaves' extents
	sc.counts = slices.Grow(sc.counts[:0], len(leaves))[:len(leaves)]
	clear(sc.counts)
	sc.listed = sc.listed[:0]
	for _, r := range g.Ranks {
		i := rs.IndexOfRank(r)
		if i < 0 || len(rs.List(i)) == 0 {
			continue
		}
		sc.overlaps = index.RequestOverlapAppend(sc.overlaps[:0], rs, i)
		for _, bb := range sc.overlaps {
			sc.listed = append(sc.listed, leafContribution{bb.Bucket, rankContribution{rank: r, bytes: bb.Bytes}})
			sc.counts[bb.Bucket]++
		}
	}
	backing := slices.Grow(sc.backing, len(sc.listed))[:len(sc.listed)]
	sc.backing = backing
	out := make([][]rankContribution, len(leaves))
	for i, n := range sc.counts {
		out[i] = backing[:0:n]
		backing = backing[n:]
	}
	for _, c := range sc.listed {
		out[c.leaf] = append(out[c.leaf], c.rankContribution)
	}
	for i, l := range leaves {
		sc.lists[l] = out[i]
	}
}

// remerge moves victim's contributions into absorber's after a
// Remerge: the two leaves are disjoint, so a rank's bytes in the merged
// leaf are the sum of its bytes in each. The rank-ordered lists are
// merged into backing.
func (sc *contribScratch) remerge(absorber, victim *TreeNode) {
	a, b := sc.lists[absorber], sc.lists[victim]
	delete(sc.lists, victim)
	start := len(sc.backing)
	out := slices.Grow(sc.backing, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].rank < b[0].rank:
			out, a = append(out, a[0]), a[1:]
		case b[0].rank < a[0].rank:
			out, b = append(out, b[0]), b[1:]
		default:
			out = append(out, rankContribution{rank: a[0].rank, bytes: a[0].bytes + b[0].bytes})
			a, b = a[1:], b[1:]
		}
	}
	out = append(append(out, a...), b...)
	sc.backing = out
	sc.lists[absorber] = out[start:len(out):len(out)]
}

// locate implements §3.3's aggregator location for one file domain: among
// the hosts of processes whose requests fall in the domain, with fewer
// than N_ah aggregators already, pick the one with maximum available
// memory; succeed only if that maximum clears Mem_min. The chosen
// aggregator process is the related rank on that host with the most data
// in the domain (data-local placement), lowest rank on ties.
func (s *Strategy) locate(
	ctx *collio.Context,
	contribs []rankContribution,
	tracker *memmodel.Tracker,
	aggsOnHost map[int]int,
) (host, rank int, ok bool) {
	type hostInfo struct {
		bestRank  int
		bestBytes int64
	}
	related := make(map[int]*hostInfo)
	for _, c := range contribs {
		n := ctx.Topo.NodeOf(c.rank)
		hi := related[n]
		if hi == nil {
			related[n] = &hostInfo{bestRank: c.rank, bestBytes: c.bytes}
		} else if c.bytes > hi.bestBytes {
			hi.bestRank, hi.bestBytes = c.rank, c.bytes
		}
	}
	hosts := make([]int, 0, len(related))
	for n := range related {
		if aggsOnHost[n] < ctx.Params.Nah {
			hosts = append(hosts, n)
		}
	}
	sort.Ints(hosts)
	// Pick the host maximizing available memory discounted by the
	// aggregators it already carries: §3.3's max-Mem_avl selection,
	// tempered by the paper's stated goal of a "balanced memory
	// consumption design" — piling every domain onto the single richest
	// node would trade the memory win for a network hotspot.
	best := -1
	var bestScore float64 = -1
	for _, n := range hosts {
		if tracker.Avail(n) < ctx.Params.MemMin {
			continue
		}
		score := float64(tracker.Avail(n)) / float64(1+aggsOnHost[n])
		if score > bestScore {
			best, bestScore = n, score
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	return best, related[best].bestRank, true
}

// fallback picks the related host with the most available memory ignoring
// the N_ah and Mem_min constraints — used only when a whole group cannot
// satisfy the memory requirement and the I/O must proceed anyway.
func (s *Strategy) fallback(
	ctx *collio.Context,
	contribs []rankContribution,
	g Group,
	tracker *memmodel.Tracker,
) (host, rank int, err error) {
	best := -1
	bestRank := -1
	var bestAvail int64 = -1
	var bestBytes int64 = -1
	for _, c := range contribs {
		n := ctx.Topo.NodeOf(c.rank)
		a := tracker.Avail(n)
		if a > bestAvail || (a == bestAvail && c.bytes > bestBytes) {
			best, bestAvail, bestRank, bestBytes = n, a, c.rank, c.bytes
		}
	}
	if best < 0 {
		return 0, 0, fmt.Errorf("core: domain in group %d has no related processes", g.Index)
	}
	return best, bestRank, nil
}

// pagedBuffer sizes the aggregation buffer of a domain of bytes bytes
// placed on a host with avail bytes free where no host meets Mem_min:
// the collective buffer collBuf, capped at the domain's bytes, then,
// memory-conscious to the last, shrunk toward avail (more rounds, no
// paging) before accepting any over-commit. The shrink stops at an
// eighth of collBuf so rounds cannot explode, and the buffer is at
// least one byte. severity is the share of the buffer avail does not
// cover, which pages.
func pagedBuffer(collBuf, bytes, avail int64) (buf int64, severity float64) {
	buf = min(collBuf, bytes)
	if avail < buf {
		buf = max(avail, collBuf/8, 1)
	}
	buf = max(buf, 1)
	if avail < buf {
		severity = float64(buf-avail) / float64(buf)
	}
	return buf, severity
}
