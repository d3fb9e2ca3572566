// Package core implements the paper's contribution: memory-conscious
// collective I/O. The strategy (1) divides a collective operation's
// workload into disjoint aggregation groups so shuffle traffic stays
// within a group (§3.1), (2) partitions each group's file region into file
// domains with a recursive-bisection binary partition tree terminated at
// the aggregator-saturating message size Msg_ind (§3.2), (3) remerges
// domains whose candidate hosts lack aggregation memory, using the
// partition tree's leaf-takeover rules (§3.2, Figures 5a/5b), and
// (4) locates each domain's aggregator at run time on the related host
// with the most available memory, subject to the per-host aggregator
// limit N_ah and the memory floor Mem_min (§3.3).
package core

import (
	"fmt"

	"mcio/internal/pfs"
)

// TreeNode is one vertex of the binary partition tree. Leaves are live
// file domains; internal vertices "stand for the portions that no longer
// exist, but were split at some previous time" (§3.2) — their Extents and
// Bytes record the portion at the moment it was split and are not updated
// by later remerges.
type TreeNode struct {
	Extents []pfs.Extent // data extents of the portion, normalized
	Bytes   int64        // total data bytes of the portion
	Parent  *TreeNode
	Left    *TreeNode
	Right   *TreeNode
}

// IsLeaf reports whether the vertex currently owns a file domain.
func (n *TreeNode) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Sibling returns the other child of n's parent, or nil for the root.
func (n *TreeNode) Sibling() *TreeNode {
	if n.Parent == nil {
		return nil
	}
	if n.Parent.Left == n {
		return n.Parent.Right
	}
	return n.Parent.Left
}

// isLeftChild reports whether n is its parent's left child.
func (n *TreeNode) isLeftChild() bool { return n.Parent != nil && n.Parent.Left == n }

// PartitionTree is the dynamic workload-partition structure of §3.2: a
// binary tree whose leaves tile a group's requested data exactly and
// disjointly, in file order.
type PartitionTree struct {
	Root *TreeNode
}

// BuildTree recursively bisects the data in exts until every portion holds
// at most msgInd bytes. Bisection is by data volume, not file span, so
// sparse regions produce few large-span domains and dense regions many
// small ones — "different number of file domains will be generated in each
// group depending on the amount and distribution of data" (§3.2). A
// canonical exts is read in place: the root keeps it as its Extents, and
// the tree never writes to an extent list.
func BuildTree(exts []pfs.Extent, msgInd int64) (*PartitionTree, error) {
	if msgInd <= 0 {
		return nil, fmt.Errorf("core: msgInd %d must be positive", msgInd)
	}
	norm := pfs.Normalized(exts)
	if len(norm) == 0 {
		return &PartitionTree{}, nil
	}
	return &PartitionTree{Root: buildNode(norm, msgInd)}, nil
}

func buildNode(exts []pfs.Extent, msgInd int64) *TreeNode {
	n := &TreeNode{Extents: exts, Bytes: pfs.TotalBytes(exts)}
	if n.Bytes <= msgInd {
		return n
	}
	// Split at a multiple of msgInd so the tree terminates in exactly
	// ceil(Bytes/msgInd) leaves, each at most msgInd — a plain halving
	// split would overshoot to the next power of two and produce
	// needlessly small domains.
	leaves := (n.Bytes + msgInd - 1) / msgInd
	half := (leaves + 1) / 2 * msgInd
	if half >= n.Bytes {
		half = n.Bytes / 2
	}
	left := pfs.SliceData(exts, 0, half)
	right := pfs.SliceData(exts, half, n.Bytes-half)
	n.Left = buildNode(left, msgInd)
	n.Right = buildNode(right, msgInd)
	n.Left.Parent = n
	n.Right.Parent = n
	return n
}

// Leaves returns the live file domains in file order (in-order traversal).
func (t *PartitionTree) Leaves() []*TreeNode {
	var out []*TreeNode
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		if n == nil {
			return
		}
		if n.IsLeaf() {
			out = append(out, n)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	return out
}

// Remerge removes leaf from the tree and merges its file portion into the
// neighbouring domain, returning the leaf that absorbed it. It implements
// the two takeover cases of §3.2:
//
//   - Figure 5a: the sibling B is itself a leaf. B "takes over A
//     directly": the merged region is owned by vertex B, which moves up
//     into the former parent's position.
//   - Figure 5b: the sibling B was further split. A depth-first search in
//     B's subtree finds the leaf adjacent to A — visiting left children
//     first when A is the left sibling, right children first otherwise —
//     and that leaf C takes over A's portion; A's parent is spliced out.
//
// In both cases the absorbing vertex keeps its identity (the paper's
// "assign vertex B to that leaf"), so any aggregator decision already
// attached to it survives the merge. Remerging the root (the only
// remaining domain) is impossible and returns an error. "The remerge
// procedures are limited within each aggregation group" (§3.2) holds by
// construction: each group has its own tree.
func (t *PartitionTree) Remerge(leaf *TreeNode) (*TreeNode, error) {
	if leaf == nil || !leaf.IsLeaf() {
		return nil, fmt.Errorf("core: Remerge of a non-leaf vertex")
	}
	if leaf.Parent == nil {
		return nil, fmt.Errorf("core: cannot remerge the only remaining domain")
	}
	parent := leaf.Parent
	sibling := leaf.Sibling()

	// Figure 5a: the sibling is the absorber. Figure 5b: DFS into the
	// sibling subtree toward A finds the adjacent leaf.
	absorber := sibling
	leftFirst := leaf.isLeftChild() // A left of B → B's leftmost leaf is adjacent
	for !absorber.IsLeaf() {
		if leftFirst {
			absorber = absorber.Left
		} else {
			absorber = absorber.Right
		}
	}
	absorber.Extents = pfs.Union([][]pfs.Extent{absorber.Extents, leaf.Extents})
	absorber.Bytes += leaf.Bytes

	// Splice A's parent out: the sibling subtree takes the parent's place.
	grand := parent.Parent
	sibling.Parent = grand
	if grand == nil {
		t.Root = sibling
	} else if grand.Left == parent {
		grand.Left = sibling
	} else {
		grand.Right = sibling
	}
	return absorber, nil
}
