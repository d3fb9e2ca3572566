package core

import (
	"fmt"
	"maps"

	"mcio/internal/collio"
	"mcio/internal/faults"
	"mcio/internal/memmodel"
)

// RecoveryState is the planner state a mid-operation Failover handler
// needs: the partition tree of each group (so failed domains remerge
// along the same §3.2 rules that built them), the leaf each live domain
// occupies, and the memory tracker the original placement reserved
// against. PlanWithState returns it alongside the plan.
type RecoveryState struct {
	trees       []*PartitionTree
	domainLeaf  []*TreeNode // aligned with the plan's domain order
	leafDomain  map[*TreeNode]int
	domainGroup []int
	groupRanks  [][]int
	tracker     *memmodel.Tracker
	down        map[int]bool
	// leakBase snapshots a node's leak-free memory budget the first time
	// a MemLeak decays it, so successive decay fractions apply against
	// the same base instead of compounding.
	leakBase map[int]int64
}

// Fork returns a copy of st that recovers independently: a Failover
// over the fork never changes st, so one plan's state serves any number
// of faulted runs, each from its own fork. The partition trees are
// copied node by node, with the domain↔leaf maps moved onto the copy;
// the down set, the leak bases and the memory tracker (observer
// included) are copied. The extent lists stay shared, since a remerge
// gives its absorber a fresh union and never writes into a list, and so
// do the read-only group tables.
func (st *RecoveryState) Fork() *RecoveryState {
	f := &RecoveryState{
		trees:       make([]*PartitionTree, len(st.trees)),
		domainLeaf:  make([]*TreeNode, len(st.domainLeaf)),
		leafDomain:  make(map[*TreeNode]int, len(st.leafDomain)),
		domainGroup: st.domainGroup,
		groupRanks:  st.groupRanks,
		down:        maps.Clone(st.down),
		leakBase:    maps.Clone(st.leakBase),
	}
	if st.tracker != nil {
		f.tracker = st.tracker.Clone()
	}
	// Every domain's leaf is a leaf of its group's tree and the two maps
	// are inverses, so each copied leaf finds its domain through st's map.
	var clone func(n, parent *TreeNode) *TreeNode
	clone = func(n, parent *TreeNode) *TreeNode {
		if n == nil {
			return nil
		}
		c := &TreeNode{Extents: n.Extents, Bytes: n.Bytes, Parent: parent}
		if di, ok := st.leafDomain[n]; ok {
			f.domainLeaf[di] = c
			f.leafDomain[c] = di
		}
		c.Left = clone(n.Left, c)
		c.Right = clone(n.Right, c)
		return c
	}
	for i, t := range st.trees {
		f.trees[i] = &PartitionTree{Root: clone(t.Root, nil)}
	}
	return f
}

// Failover is the memory-conscious strategy's mid-operation recovery
// policy (collio.FaultHandler): when an aggregator's host crashes or
// its memory collapses, each of its file domains is remerged into its
// partition-tree sibling (the same leaf-takeover / order-aware DFS
// walk of Fig. 5 that planning uses), chaining past absorbers that are
// themselves on failed hosts. A group reduced to its last leaf instead
// relocates that domain to the live related host with the most
// available memory. Detect is the failure-detection latency charged as
// stall time per recovery; a health-driven proactive re-placement is
// charged Detect/8, since no failure had to be detected, only a
// suspicion threshold crossed and the move coordinated.
type Failover struct {
	State  *RecoveryState
	Detect float64
}

// Name implements collio.FaultHandler.
func (f *Failover) Name() string { return "memory-conscious failover" }

// OnHostFault implements collio.FaultHandler.
func (f *Failover) OnHostFault(ctx *collio.Context, hf collio.HostFault,
	live []collio.Domain, affected []int) ([]collio.Reassignment, error) {
	st := f.State
	st.down[hf.Node] = true
	stall := f.Detect
	if hf.Proactive {
		// Health-driven re-placement off a suspected host: the node is
		// alive (its memory accounting stays truthful — being down only
		// excludes it from future placement), and no detection timeout
		// was paid, only the suspicion latency.
		stall = f.Detect / 8
		// A proactive move needs somewhere better to go. When every
		// other host is already down (crashed, collapsed, or itself
		// suspected away), decline: the node still works — slowly — and
		// staying put beats relocating onto nothing.
		liveHosts := 0
		for n := 0; n < ctx.Topo.Nodes(); n++ {
			if !st.down[n] {
				liveHosts++
			}
		}
		if liveHosts == 0 {
			delete(st.down, hf.Node)
			return nil, nil
		}
	} else if hf.Kind == faults.MemCollapse {
		// The co-resident application took the memory: the node stays up
		// but can no longer back aggregation buffers.
		st.tracker.Collapse(hf.Node, hf.Severity)
	} else {
		st.tracker.SetAvail(hf.Node, 0)
	}

	var ras []collio.Reassignment
	handled := make(map[int]bool)
	for _, di := range affected {
		if handled[di] {
			continue
		}
		cur := di
		for {
			handled[cur] = true
			g := st.domainGroup[cur]
			leaf := st.domainLeaf[cur]
			var absorber *TreeNode
			err := fmt.Errorf("core: domain %d has no partition-tree leaf", cur)
			if leaf != nil {
				absorber, err = st.trees[g].Remerge(leaf)
			}
			if err != nil {
				// Last leaf of its group: nothing to merge into, relocate.
				ra, rerr := f.relocate(ctx, cur, g, live, stall)
				if rerr != nil {
					return nil, rerr
				}
				ras = append(ras, ra)
				break
			}
			ai, ok := st.leafDomain[absorber]
			if !ok {
				return nil, fmt.Errorf("core: absorber leaf of domain %d has no domain", cur)
			}
			st.domainLeaf[cur] = nil
			delete(st.leafDomain, leaf)
			ras = append(ras, collio.Reassignment{
				Domain:       cur,
				MergeInto:    ai,
				StallSeconds: stall,
			})
			if !st.down[live[ai].AggNode] {
				break
			}
			// The absorber sits on a failed host too (an earlier victim of
			// this event, or of a previous one): chain its merged load
			// onward until a live host absorbs it.
			cur = ai
		}
	}
	return ras, nil
}

// relocate places a domain standalone on the live related host with the
// most available memory (any live host if the whole group's hosts are
// down), sizing the buffer to what that host has, as planning's
// fallback does.
func (f *Failover) relocate(ctx *collio.Context, di, g int, live []collio.Domain, stall float64) (collio.Reassignment, error) {
	st := f.State
	best, bestAvail := -1, int64(-1)
	consider := func(n int) {
		if st.down[n] {
			return
		}
		if a := st.tracker.Avail(n); a > bestAvail {
			best, bestAvail = n, a
		}
	}
	seen := make(map[int]bool)
	for _, r := range st.groupRanks[g] {
		if n := ctx.Topo.NodeOf(r); !seen[n] {
			seen[n] = true
			consider(n)
		}
	}
	if best < 0 {
		for n := 0; n < ctx.Topo.Nodes(); n++ {
			consider(n)
		}
	}
	if best < 0 {
		return collio.Reassignment{}, fmt.Errorf("core: no live host to relocate domain %d onto", di)
	}
	rank := -1
	for _, r := range st.groupRanks[g] {
		if ctx.Topo.NodeOf(r) == best {
			rank = r
			break
		}
	}
	if rank < 0 {
		ranks := ctx.Topo.RanksOnNode(best)
		if len(ranks) == 0 {
			return collio.Reassignment{}, fmt.Errorf("core: relocation host %d has no ranks", best)
		}
		rank = ranks[0]
	}

	// An empty domain keeps a whole collective buffer.
	bytes := live[di].Bytes
	if bytes <= 0 {
		bytes = ctx.Params.CollBufSize
	}
	buf, severity := pagedBuffer(ctx.Params.CollBufSize, bytes, st.tracker.Avail(best))
	st.tracker.Reserve(best, buf)
	return collio.Reassignment{
		Domain:        di,
		MergeInto:     -1,
		Aggregator:    rank,
		AggNode:       best,
		BufferBytes:   buf,
		PagedSeverity: severity,
		StallSeconds:  stall,
	}, nil
}

// OnMemDecay implements collio.MemDecayHandler: a MemLeak has decayed
// node's memory budget to (1-leaked) of its leak-free value. The first
// decay snapshots the leak-free budget so later fractions apply to the
// same base, the tracker's budget is rewritten (reservations stay
// booked against the shrunken budget), and the node's resulting paged
// severity is returned for the cost engine. A node already declared
// down keeps its zeroed budget.
func (f *Failover) OnMemDecay(node int, leaked float64) float64 {
	st := f.State
	if st.down[node] {
		return st.tracker.Severity(node)
	}
	if st.leakBase == nil {
		st.leakBase = make(map[int]int64)
	}
	base, ok := st.leakBase[node]
	if !ok {
		base = st.tracker.Budget(node)
		st.leakBase[node] = base
	}
	if leaked < 0 {
		leaked = 0
	}
	if leaked > 1 {
		leaked = 1
	}
	st.tracker.SetAvail(node, int64(float64(base)*(1-leaked)))
	return st.tracker.Severity(node)
}
