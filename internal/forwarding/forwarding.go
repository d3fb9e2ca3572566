// Package forwarding models an I/O forwarding layer in the style of ZOID
// and IOFSL, which the paper's related-work section situates itself
// against: compute processes ship their I/O calls to a small set of
// dedicated I/O nodes ("forwarders"), which merge the calls they receive
// and perform the storage accesses on the clients' behalf.
//
// Forwarding sits between independent I/O and collective I/O on the
// paper's spectrum: it reduces the number of file-system clients and
// merges requests per forwarder, but it does not reorganize data by file
// locality the way two-phase aggregation does — each forwarder still
// issues its clients' (interleaved, fragmented) extents.
package forwarding

import (
	"fmt"

	"mcio/internal/collio"
	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// Config places the forwarding layer.
type Config struct {
	// Forwarders is the number of dedicated I/O nodes. They occupy the
	// machine's node indices after the compute nodes, so the machine
	// config must have at least topology-nodes + Forwarders nodes.
	Forwarders int
	// BufferBytes is each forwarder's staging buffer; a forwarder cycles
	// its clients' data through it in rounds, like an aggregator.
	BufferBytes int64
}

// Validate reports an error for an unusable layout.
func (c Config) Validate() error {
	if c.Forwarders <= 0 {
		return fmt.Errorf("forwarding: Forwarders must be positive")
	}
	if c.BufferBytes <= 0 {
		return fmt.Errorf("forwarding: BufferBytes must be positive")
	}
	return nil
}

// Cost prices the requests issued through the forwarding layer: every
// compute node ships its processes' data to its assigned forwarder
// (round-robin by node), and the forwarder performs the merged storage
// accesses, cycling its staging buffer.
func Cost(ctx *collio.Context, reqs []collio.RankRequest, op collio.Op, opt sim.Options, fcfg Config) (*collio.CostResult, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if err := fcfg.Validate(); err != nil {
		return nil, err
	}
	computeNodes := ctx.Topo.Nodes()
	if ctx.Machine.Nodes < computeNodes+fcfg.Forwarders {
		return nil, fmt.Errorf("forwarding: machine has %d nodes, need %d compute + %d forwarders",
			ctx.Machine.Nodes, computeNodes, fcfg.Forwarders)
	}
	rs := collio.NewRequestSet(reqs)
	if rank, ok := collio.InvalidRank(ctx, rs); ok {
		return nil, fmt.Errorf("forwarding: request for invalid rank %d", rank)
	}
	if rank, e, ok := rs.NegativeExtent(); ok {
		return nil, fmt.Errorf("forwarding: rank %d requests an extent of negative length %d", rank, e.Length)
	}
	eng, err := ctx.NewEngine(opt)
	if err != nil {
		return nil, err
	}

	// Assign compute nodes to forwarders round-robin; gather each
	// forwarder's merged extent set and per-client-node volumes.
	type fwdState struct {
		lists   [][]pfs.Extent
		clients map[int]int64 // compute node -> bytes
	}
	fwd := make([]*fwdState, fcfg.Forwarders)
	for i := range fwd {
		fwd[i] = &fwdState{clients: map[int]int64{}}
	}
	for i := range rs.Len() {
		norm := rs.List(i)
		if len(norm) == 0 {
			continue
		}
		b := pfs.TotalBytes(norm)
		node := ctx.Topo.NodeOf(rs.Rank(i))
		f := fwd[node%fcfg.Forwarders]
		f.lists = append(f.lists, norm)
		f.clients[node] += b
	}
	maxRounds := 0
	type fwdPlan struct {
		node    int
		extents []pfs.Extent
		bytes   int64
		rounds  int
		clients map[int]int64
	}
	plans := make([]fwdPlan, 0, fcfg.Forwarders)
	for i, f := range fwd {
		norm := pfs.Union(f.lists)
		if len(norm) == 0 {
			continue
		}
		bytes := pfs.TotalBytes(norm)
		rounds := int((bytes + fcfg.BufferBytes - 1) / fcfg.BufferBytes)
		if rounds > maxRounds {
			maxRounds = rounds
		}
		plans = append(plans, fwdPlan{
			node:    computeNodes + i, // forwarder i's dedicated node
			extents: norm,
			bytes:   bytes,
			rounds:  rounds,
			clients: f.clients,
		})
	}

	for k := 0; k < maxRounds; k++ {
		var round sim.AggRound
		for i, p := range plans {
			if k >= p.rounds {
				continue
			}
			for client, b := range p.clients {
				per := b / int64(p.rounds)
				if int64(k) < b%int64(p.rounds) {
					per++
				}
				if per == 0 {
					continue
				}
				m := sim.AggMessage{SrcNode: client, DstNode: p.node, Bytes: per, Count: 1}
				if op == collio.Read {
					m.SrcNode, m.DstNode = m.DstNode, m.SrcNode
				}
				round.Messages = append(round.Messages, m)
			}
			slice := pfs.SliceData(p.extents, int64((k+i)%p.rounds)*fcfg.BufferBytes, fcfg.BufferBytes)
			for _, acc := range ctx.FS.MapExtents(slice) {
				round.IOOps = append(round.IOOps, sim.IOOp{
					Target:     acc.Target,
					Node:       p.node,
					Bytes:      acc.Bytes,
					Requests:   acc.Requests,
					Contiguous: acc.Contiguous,
					Write:      op == collio.Write,
				})
			}
		}
		eng.RunAggRound(round)
	}
	userBytes := rs.TotalBytes()
	return &collio.CostResult{
		Strategy:    "io-forwarding",
		Op:          op,
		UserBytes:   userBytes,
		Seconds:     eng.Elapsed(),
		Bandwidth:   eng.Bandwidth(userBytes),
		Totals:      eng.Totals(),
		Aggregators: len(plans),
		Domains:     len(plans),
		Groups:      len(plans),
		MaxRounds:   maxRounds,
	}, nil
}
