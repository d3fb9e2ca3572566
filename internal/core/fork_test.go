package core

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/faults"
	"mcio/internal/memmodel"
	"mcio/internal/pfs"
)

// stateVertex is one partition-tree vertex in preorder, with the domain
// its leaf carries (-1 for none).
type stateVertex struct {
	Bytes   int64
	Extents []pfs.Extent
	Leaf    bool
	Domain  int
}

// stateSnap is a deep copy of everything a Failover can change in a
// RecoveryState, plus the identity of the leaves domainLeaf points at.
type stateSnap struct {
	Trees      [][]stateVertex
	DomainLeaf []*TreeNode
	LeafDomain map[*TreeNode]int
	Tracker    *memmodel.Tracker
	Down       []int
	LeakBase   map[int]int64
}

func snapshot(st *RecoveryState) stateSnap {
	s := stateSnap{
		DomainLeaf: slices.Clone(st.domainLeaf),
		LeafDomain: maps.Clone(st.leafDomain),
		LeakBase:   maps.Clone(st.leakBase),
	}
	for _, t := range st.trees {
		var vs []stateVertex
		var walk func(n *TreeNode)
		walk = func(n *TreeNode) {
			if n == nil {
				return
			}
			di, ok := st.leafDomain[n]
			if !ok {
				di = -1
			}
			vs = append(vs, stateVertex{n.Bytes, slices.Clone(n.Extents), n.IsLeaf(), di})
			walk(n.Left)
			walk(n.Right)
		}
		walk(t.Root)
		s.Trees = append(s.Trees, vs)
	}
	if st.tracker != nil {
		s.Tracker = st.tracker.Clone()
	}
	for n, down := range st.down {
		if down {
			s.Down = append(s.Down, n)
		}
	}
	slices.Sort(s.Down)
	return s
}

// sameContent compares two snapshots by value, ignoring which vertices
// the leaf maps point at (a fork's leaves are its own).
func sameContent(a, b stateSnap) bool {
	a.DomainLeaf, a.LeafDomain, b.DomainLeaf, b.LeafDomain = nil, nil, nil, nil
	return reflect.DeepEqual(a, b)
}

// forkPlan plans the degradation workload into two groups of several
// domains each on four nodes.
func forkPlan(t *testing.T) (*collio.Context, []collio.RankRequest, *collio.Plan, *RecoveryState) {
	t.Helper()
	params := collio.DefaultParams(128)
	params.MemMin = 64
	params.MsgInd = 400
	params.MsgGroup = 1600
	ctx, reqs := degradeCtx(t, 1<<12, params)
	plan, state, err := New().PlanWithState(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.trees) < 2 || len(plan.Domains) < 6 {
		t.Fatalf("plan has %d groups and %d domains, want a few of each", len(state.trees), len(plan.Domains))
	}
	return ctx, reqs, plan, state
}

// recoveryTally counts what a sequence of host events did.
type recoveryTally struct{ merges, chains, relocations int }

// hostEvent delivers one host fault for every live domain on node and
// applies the handler's reassignments to live.
func hostEvent(t *testing.T, ctx *collio.Context, h *Failover, live []collio.Domain, node int,
	kind faults.Kind, sev float64, tally *recoveryTally) []collio.Reassignment {
	t.Helper()
	var affected []int
	for i, d := range live {
		if d.Bytes > 0 && d.AggNode == node {
			affected = append(affected, i)
		}
	}
	ras, err := h.OnHostFault(ctx, collio.HostFault{Node: node, Kind: kind, Severity: sev}, live, affected)
	if err != nil {
		t.Fatal(err)
	}
	for i, ra := range ras {
		switch {
		case ra.MergeInto < 0:
			tally.relocations++
		case i > 0 && ras[i-1].MergeInto == ra.Domain:
			tally.chains++
			tally.merges++
		default:
			tally.merges++
		}
	}
	if err := collio.ApplyReassignments(live, ras); err != nil {
		t.Fatal(err)
	}
	return ras
}

// recoverAll runs a leak decay, a memory collapse and crashes until one
// node is left on st, returning every reassignment decided.
func recoverAll(t *testing.T, ctx *collio.Context, reqs []collio.RankRequest, plan *collio.Plan,
	st *RecoveryState, tally *recoveryTally) [][]collio.Reassignment {
	t.Helper()
	h := &Failover{State: st, Detect: 0.01}
	live := slices.Clone(plan.Domains)
	var all [][]collio.Reassignment
	h.OnMemDecay(3, 0.3)
	h.OnMemDecay(3, 0.5) // against the first decay's base
	all = append(all, hostEvent(t, ctx, h, live, 2, faults.MemCollapse, 0.75, tally))
	for _, n := range []int{0, 1, 2} {
		all = append(all, hostEvent(t, ctx, h, live, n, faults.NodeCrash, 0, tally))
	}
	if err := (&collio.Plan{Strategy: plan.Strategy, Groups: plan.Groups, GroupRanks: plan.GroupRanks,
		Domains: live}).Compact().Validate(reqs); err != nil {
		t.Fatalf("recovered domains no longer tile the requests: %v", err)
	}
	return all
}

// A fork recovers on its own copy: crash remerges (chained ones
// included), a last-leaf relocation, a memory collapse and a leak decay
// on the fork leave the parent's trees, leaf maps, tracker, down set and
// leak bases as they were, and the fork decides exactly what a freshly
// planned state decides.
func TestRecoveryStateForkIsolatesRecovery(t *testing.T) {
	ctx, reqs, plan, st := forkPlan(t)
	before := snapshot(st)
	domains := slices.Clone(plan.Domains)

	var tally recoveryTally
	got := recoverAll(t, ctx, reqs, plan, st.Fork(), &tally)
	if tally.merges == 0 || tally.chains == 0 || tally.relocations == 0 {
		t.Fatalf("recovery exercised too little: %+v", tally)
	}
	if after := snapshot(st); !reflect.DeepEqual(after, before) {
		t.Fatalf("recovery on a fork changed its parent\nbefore %+v\nafter  %+v", before, after)
	}
	if !reflect.DeepEqual(plan.Domains, domains) {
		t.Fatal("recovery on a fork changed the plan's domains")
	}

	_, _, fresh, freshState := forkPlan(t)
	want := recoverAll(t, ctx, reqs, fresh, freshState, &recoveryTally{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("a fork recovers differently from a fresh state\nfork  %+v\nfresh %+v", got, want)
	}

	// A fork of a recovered state carries its recovery along.
	again := freshState.Fork()
	if !sameContent(snapshot(again), snapshot(freshState)) {
		t.Fatal("a fork of a recovered state differs from it")
	}
}

// Two forks of one state diverge independently: an event on one leaves
// the other, and the parent, as they were.
func TestRecoveryStateForksDiverge(t *testing.T) {
	ctx, _, plan, st := forkPlan(t)
	parent := snapshot(st)
	a, b := st.Fork(), st.Fork()
	if !sameContent(snapshot(a), parent) || !sameContent(snapshot(b), parent) {
		t.Fatal("a fresh fork differs from its parent")
	}
	var tally recoveryTally
	liveA, liveB := slices.Clone(plan.Domains), slices.Clone(plan.Domains)
	hostEvent(t, ctx, &Failover{State: a, Detect: 0.01}, liveA, 0, faults.NodeCrash, 0, &tally)
	if !sameContent(snapshot(b), parent) {
		t.Fatal("an event on one fork changed its sibling")
	}
	snapA := snapshot(a)
	if sameContent(snapA, parent) {
		t.Fatal("the crash changed nothing on its fork")
	}
	hb := &Failover{State: b, Detect: 0.01}
	hostEvent(t, ctx, hb, liveB, 1, faults.MemCollapse, 0.9, &tally)
	hb.OnMemDecay(2, 0.4)
	if !reflect.DeepEqual(snapshot(a), snapA) {
		t.Fatal("events on one fork changed its sibling")
	}
	if sameContent(snapshot(b), snapA) {
		t.Fatal("forks given different events ended alike")
	}
	if !reflect.DeepEqual(snapshot(st), parent) {
		t.Fatal("events on the forks changed their parent")
	}
}
