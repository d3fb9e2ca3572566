// Package mpi implements the message-passing runtime the collective I/O
// stack runs on: ranks execute as goroutines inside one process, exchange
// real byte slices through buffered mailboxes, and are placed onto the
// simulated machine's nodes by a Topology.
//
// Only what the collective executor needs is implemented: point-to-point
// send and receive with tags, and rank-to-node placement. Message matching
// is FIFO per (source, tag) pair, as in MPI. Delivery is deterministic:
// a receive names its source, so a program that is deterministic over
// ranks produces identical results on every run.
package mpi

import "fmt"

// Topology places ranks onto machine nodes.
type Topology struct {
	nodeOf []int
	nodes  int
	// Ranks grouped by node in CSR form: node n's ranks are
	// rankIdx[rankStart[n]:rankStart[n+1]], ascending. Built once at
	// construction so per-node lookups are O(1) rather than a scan over
	// all ranks — planners query every node.
	rankIdx   []int
	rankStart []int
}

// index builds the by-node CSR grouping. nodeOf iterates in rank order,
// so each node's slice comes out ascending.
func (t *Topology) index() {
	counts := make([]int, t.nodes)
	for _, n := range t.nodeOf {
		counts[n]++
	}
	t.rankStart = make([]int, t.nodes+1)
	for i, c := range counts {
		t.rankStart[i+1] = t.rankStart[i] + c
	}
	t.rankIdx = make([]int, len(t.nodeOf))
	pos := append([]int(nil), t.rankStart[:t.nodes]...)
	for r, n := range t.nodeOf {
		t.rankIdx[pos[n]] = r
		pos[n]++
	}
}

// BlockTopology places size ranks onto consecutive nodes, ranksPerNode at
// a time: ranks 0..k-1 on node 0, k..2k-1 on node 1, and so on. This is
// the default MPI process-manager placement the paper assumes (e.g. 120
// ranks on 10 nodes of 12 cores).
func BlockTopology(size, ranksPerNode int) (Topology, error) {
	if size <= 0 {
		return Topology{}, fmt.Errorf("mpi: topology size %d must be positive", size)
	}
	if ranksPerNode <= 0 {
		return Topology{}, fmt.Errorf("mpi: ranksPerNode %d must be positive", ranksPerNode)
	}
	t := Topology{nodeOf: make([]int, size)}
	for r := 0; r < size; r++ {
		t.nodeOf[r] = r / ranksPerNode
	}
	t.nodes = (size + ranksPerNode - 1) / ranksPerNode
	t.index()
	return t, nil
}

// ExplicitTopology builds a topology from an explicit rank→node map.
func ExplicitTopology(nodeOf []int) (Topology, error) {
	if len(nodeOf) == 0 {
		return Topology{}, fmt.Errorf("mpi: empty topology")
	}
	max := -1
	for r, n := range nodeOf {
		if n < 0 {
			return Topology{}, fmt.Errorf("mpi: rank %d on negative node %d", r, n)
		}
		if n > max {
			max = n
		}
	}
	t := Topology{nodeOf: append([]int(nil), nodeOf...), nodes: max + 1}
	t.index()
	return t, nil
}

// Size returns the number of ranks.
func (t Topology) Size() int { return len(t.nodeOf) }

// Nodes returns the number of nodes spanned (highest node index + 1).
func (t Topology) Nodes() int { return t.nodes }

// NodeOf returns the node hosting the given rank.
func (t Topology) NodeOf(rank int) int { return t.nodeOf[rank] }

// RanksOnNode returns the ranks placed on a node, in ascending order.
// The slice aliases the topology's index: callers must not modify it.
func (t Topology) RanksOnNode(node int) []int {
	return t.rankIdx[t.rankStart[node]:t.rankStart[node+1]]
}
