package core

import (
	"testing"
	"testing/quick"

	mrand "math/rand"

	"mcio/internal/collio"
	"mcio/internal/faults"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/stats"
)

func leavesTile(t *PartitionTree, want []pfs.Extent) bool {
	var got []pfs.Extent
	var prevEnd int64 = -1
	for _, l := range t.Leaves() {
		if len(l.Extents) == 0 {
			return false
		}
		if l.Extents[0].Offset <= prevEnd {
			return false // out of order or overlapping
		}
		prevEnd = l.Extents[len(l.Extents)-1].End() - 1
		got = append(got, l.Extents...)
	}
	gn, wn := pfs.NormalizeExtents(got), pfs.NormalizeExtents(want)
	if len(gn) != len(wn) {
		return false
	}
	for i := range gn {
		if gn[i] != wn[i] {
			return false
		}
	}
	return true
}

func TestBuildTreeSmallIsLeaf(t *testing.T) {
	exts := []pfs.Extent{{Offset: 0, Length: 100}}
	tree, err := BuildTree(exts, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.Root.IsLeaf() {
		t.Fatal("portion within msgInd must not split")
	}
	if len(tree.Leaves()) != 1 {
		t.Fatal("want a single leaf")
	}
}

func TestBuildTreeBisects(t *testing.T) {
	exts := []pfs.Extent{{Offset: 0, Length: 400}}
	tree, err := BuildTree(exts, 100)
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	if len(leaves) != 4 {
		t.Fatalf("got %d leaves, want 4", len(leaves))
	}
	for _, l := range leaves {
		if l.Bytes != 100 {
			t.Fatalf("leaf bytes = %d, want 100", l.Bytes)
		}
	}
	if !leavesTile(tree, exts) {
		t.Fatal("leaves do not tile the region")
	}
}

func TestBuildTreeBisectsByData(t *testing.T) {
	// Sparse region: 100 bytes at 0, 100 bytes at 10000. Bisection is by
	// data volume, so the split lands between the clusters.
	exts := []pfs.Extent{{Offset: 0, Length: 100}, {Offset: 10000, Length: 100}}
	tree, err := BuildTree(exts, 100)
	if err != nil {
		t.Fatal(err)
	}
	leaves := tree.Leaves()
	if len(leaves) != 2 {
		t.Fatalf("got %d leaves", len(leaves))
	}
	if leaves[0].Extents[0] != (pfs.Extent{Offset: 0, Length: 100}) ||
		leaves[1].Extents[0] != (pfs.Extent{Offset: 10000, Length: 100}) {
		t.Fatalf("data-volume bisection wrong: %v / %v", leaves[0].Extents, leaves[1].Extents)
	}
}

func TestBuildTreeEmpty(t *testing.T) {
	tree, err := BuildTree(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != nil || len(tree.Leaves()) != 0 {
		t.Fatal("empty input should give an empty tree")
	}
}

func TestBuildTreeRejectsBadMsgInd(t *testing.T) {
	if _, err := BuildTree([]pfs.Extent{{Offset: 0, Length: 1}}, 0); err == nil {
		t.Fatal("msgInd 0 accepted")
	}
}

func TestRemergeCase5a(t *testing.T) {
	// 200 bytes, msgInd 100: root with two leaf children A (0..100) and
	// B (100..200). Removing A: B takes over A directly and moves into
	// the former parent's position (Fig 5a).
	tree, _ := BuildTree([]pfs.Extent{{Offset: 0, Length: 200}}, 100)
	a, b := tree.Root.Left, tree.Root.Right
	absorber, err := tree.Remerge(a)
	if err != nil {
		t.Fatal(err)
	}
	if absorber != b {
		t.Fatal("Fig 5a: sibling B must absorb A, keeping its identity")
	}
	if tree.Root != b {
		t.Fatal("Fig 5a: B must take the former parent's position")
	}
	if !tree.Root.IsLeaf() || tree.Root.Bytes != 200 {
		t.Fatalf("merged root: leaf=%v bytes=%d", tree.Root.IsLeaf(), tree.Root.Bytes)
	}
	if !leavesTile(tree, []pfs.Extent{{Offset: 0, Length: 200}}) {
		t.Fatal("leaves do not tile after remerge")
	}
}

func TestRemergeCase5bLeftSibling(t *testing.T) {
	// 400 bytes, msgInd 100: root -> (AB)(CD); merge leaf A's sibling is
	// the (CD)... build deeper: use msgInd so left child is a leaf and
	// right child is split. Data: left 100 bytes, right 200 bytes.
	tree, _ := BuildTree([]pfs.Extent{{Offset: 0, Length: 300}}, 110)
	// bytes=300 > 110: split at 150: left=150>110 splits again into 75+75;
	// right=150>110 splits into 75+75. Get a full two-level tree.
	a := tree.Root.Left.Left // leftmost leaf, its sibling is a leaf: 5a...
	_ = a
	// Take A = left child of root's... choose A whose sibling is internal:
	// A = root.Left.Left has leaf sibling. Instead pick A = root.Left after
	// manual collapse? Simpler: A = root.Left.Right (leaf, sibling leaf).
	// To force 5b we need a leaf whose sibling is internal. With uneven
	// msgInd: data 300, msgInd 160: split 150/150, both leaves. Use 3-level:
	tree2, _ := BuildTree([]pfs.Extent{{Offset: 0, Length: 1000}}, 260)
	// 1000 -> 500/500 -> each 250/250 leaves. Now remerge one 250-leaf to
	// make its sibling-internal case: first merge root.Left.Left and
	// root.Left.Right (5a) so root.Left is a 500-leaf whose sibling
	// root.Right is internal: then remerging root.Left is case 5b with A
	// the LEFT child, so DFS must find root.Right's LEFTMOST leaf.
	if _, err := tree2.Remerge(tree2.Root.Left.Left); err != nil {
		t.Fatal(err)
	}
	aLeaf := tree2.Root.Left
	if !aLeaf.IsLeaf() {
		t.Fatalf("setup failed: left child should be a merged leaf")
	}
	aBytes := aLeaf.Bytes
	rightSubtree := tree2.Root.Right
	wantAbsorber := rightSubtree.Left // leftmost leaf under B
	wantBytes := aBytes + wantAbsorber.Bytes
	absorber, err := tree2.Remerge(aLeaf)
	if err != nil {
		t.Fatal(err)
	}
	if absorber != wantAbsorber {
		t.Fatal("Fig 5b: left-sibling removal must be absorbed by B's leftmost leaf")
	}
	if absorber.Bytes != wantBytes {
		t.Fatalf("absorber bytes = %d, want %d", absorber.Bytes, wantBytes)
	}
	// A's parent (the old root) was spliced out: B is the new root.
	if tree2.Root != rightSubtree {
		t.Fatal("Fig 5b: sibling subtree must replace the spliced-out parent")
	}
	if !leavesTile(tree2, []pfs.Extent{{Offset: 0, Length: 1000}}) {
		t.Fatal("leaves do not tile after 5b remerge")
	}
}

func TestRemergeCase5bRightSibling(t *testing.T) {
	tree, _ := BuildTree([]pfs.Extent{{Offset: 0, Length: 1000}}, 260)
	// Merge root.Right's two leaves so root.Right is a 500-leaf whose
	// sibling root.Left is internal: A is the RIGHT child, DFS must find
	// B's RIGHTMOST leaf.
	if _, err := tree.Remerge(tree.Root.Right.Right); err != nil {
		t.Fatal(err)
	}
	aLeaf := tree.Root.Right
	leftSubtree := tree.Root.Left
	wantAbsorber := leftSubtree.Right // rightmost leaf under B
	absorber, err := tree.Remerge(aLeaf)
	if err != nil {
		t.Fatal(err)
	}
	if absorber != wantAbsorber {
		t.Fatal("Fig 5b: right-sibling removal must be absorbed by B's rightmost leaf")
	}
	if !leavesTile(tree, []pfs.Extent{{Offset: 0, Length: 1000}}) {
		t.Fatal("leaves do not tile after remerge")
	}
}

func TestRemergeRootFails(t *testing.T) {
	tree, _ := BuildTree([]pfs.Extent{{Offset: 0, Length: 50}}, 100)
	if _, err := tree.Remerge(tree.Root); err == nil {
		t.Fatal("remerging the only domain must fail")
	}
}

func TestRemergeNonLeafFails(t *testing.T) {
	tree, _ := BuildTree([]pfs.Extent{{Offset: 0, Length: 400}}, 100)
	if _, err := tree.Remerge(tree.Root); err == nil {
		t.Fatal("remerging an internal vertex must fail")
	}
	if _, err := tree.Remerge(nil); err == nil {
		t.Fatal("remerging nil must fail")
	}
}

// Property: after any sequence of random remerges, the remaining leaves
// still tile the original data exactly, disjointly, and in order.
func TestRemergePreservesTiling(t *testing.T) {
	r := stats.NewRNG(67)
	err := quick.Check(func(seed uint64) bool {
		rr := stats.NewRNG(seed)
		// Random sparse data.
		var exts []pfs.Extent
		n := rr.Intn(5) + 1
		for i := 0; i < n; i++ {
			exts = append(exts, pfs.Extent{Offset: rr.Int63n(2000), Length: rr.Int63n(500) + 1})
		}
		norm := pfs.NormalizeExtents(exts)
		msgInd := rr.Int63n(200) + 20
		tree, err := BuildTree(norm, msgInd)
		if err != nil {
			return false
		}
		for _, l := range tree.Leaves() {
			if l.Bytes > msgInd && len(tree.Leaves()) > 1 {
				return false // termination criterion violated at build time
			}
		}
		// Random remerges down to one leaf.
		for {
			leaves := tree.Leaves()
			if len(leaves) <= 1 {
				break
			}
			if !leavesTile(tree, norm) {
				return false
			}
			victim := leaves[rr.Intn(len(leaves))]
			if _, err := tree.Remerge(victim); err != nil {
				return false
			}
		}
		return leavesTile(tree, norm)
	}, &quick.Config{MaxCount: 150, Rand: quickRand(r)})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSiblingAndIsLeftChild(t *testing.T) {
	tree, _ := BuildTree([]pfs.Extent{{Offset: 0, Length: 200}}, 100)
	l, rgt := tree.Root.Left, tree.Root.Right
	if l.Sibling() != rgt || rgt.Sibling() != l {
		t.Fatal("Sibling")
	}
	if tree.Root.Sibling() != nil {
		t.Fatal("root has no sibling")
	}
	if !l.isLeftChild() || rgt.isLeftChild() {
		t.Fatal("isLeftChild")
	}
}

// Property (satellite of the fault-injection PR): after ANY sequence of
// failure-driven remerges — crashes and memory collapses over random
// workloads, in random order, up to all-but-one node — the surviving
// domains still tile the requested region exactly and disjointly, and
// none of them is placed on a failed host.
func TestFailureDrivenRemergesPreserveTiling(t *testing.T) {
	check := func(seed uint64) bool {
		rr := stats.NewRNG(seed)
		ranks := rr.Intn(8) + 4
		perNode := rr.Intn(3) + 1
		topo, err := mpi.BlockTopology(ranks, perNode)
		if err != nil {
			t.Log(err)
			return false
		}
		mc := machine.Testbed640()
		mc.Nodes = topo.Nodes()
		avail := make([]int64, topo.Nodes())
		for i := range avail {
			avail[i] = int64(rr.Intn(1<<16) + 256)
		}
		buf := int64(rr.Intn(4096) + 128)
		params := collio.DefaultParams(buf)
		params.MsgInd = int64(rr.Intn(2000) + 100)
		params.MsgGroup = params.MsgInd * int64(rr.Intn(4)+1)
		params.MemMin = int64(rr.Intn(256))
		ctx := &collio.Context{
			Topo: topo, Machine: mc, Avail: avail,
			FS: pfs.DefaultConfig(4), Params: params,
		}
		var reqs []collio.RankRequest
		var off int64
		for r := 0; r < ranks; r++ {
			ln := int64(rr.Intn(900) + 100)
			reqs = append(reqs, collio.RankRequest{
				Rank:    r,
				Extents: []pfs.Extent{{Offset: off, Length: ln}},
			})
			off += ln
			if rr.Float64() < 0.3 {
				off += int64(rr.Intn(500)) // leave a hole in the file
			}
		}

		plan, state, err := New().PlanWithState(ctx, reqs)
		if err != nil {
			t.Log(err)
			return false
		}
		handler := &Failover{State: state, Detect: 0.01}
		total := plan.TotalBytes()

		order := rr.Perm(topo.Nodes())
		for _, n := range order[:topo.Nodes()-1] {
			kind, sev := faults.NodeCrash, 0.0
			if rr.Float64() < 0.3 {
				kind, sev = faults.MemCollapse, rr.Float64()
			}
			var affected []int
			for i, d := range plan.Domains {
				if d.Bytes > 0 && d.AggNode == n {
					affected = append(affected, i)
				}
			}
			ras, err := handler.OnHostFault(ctx, collio.HostFault{Node: n, Kind: kind, Severity: sev},
				plan.Domains, affected)
			if err != nil {
				t.Logf("seed %d: handler: %v", seed, err)
				return false
			}
			if err := collio.ApplyReassignments(plan.Domains, ras); err != nil {
				t.Logf("seed %d: apply: %v", seed, err)
				return false
			}
			var live int64
			for i, d := range plan.Domains {
				if d.Bytes == 0 {
					continue
				}
				if state.down[d.AggNode] {
					t.Logf("seed %d: domain %d still on failed host %d", seed, i, d.AggNode)
					return false
				}
				live += d.Bytes
			}
			if live != total {
				t.Logf("seed %d: bytes leaked in remerge: %d != %d", seed, live, total)
				return false
			}
			// Validate re-checks the full tiling invariant: sorted,
			// disjoint, exact coverage of the requests.
			if err := plan.Compact().Validate(reqs); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	seedRNG := stats.NewRNG(42)
	if err := quick.Check(check, &quick.Config{
		MaxCount: 60,
		Rand:     mrand.New(mrand.NewSource(int64(seedRNG.Uint64()))),
	}); err != nil {
		t.Fatal(err)
	}
}
