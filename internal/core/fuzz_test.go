package core

import (
	"reflect"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/faults"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
)

// FuzzRemergeTiling drives the memory-conscious Failover handler with
// arbitrary crash/collapse sequences and checks the recovery invariant
// faulted pricing relies on: after every event, the live domains'
// extents still tile the original file region exactly — same union,
// same total bytes, no overlap — and no surviving domain sits on a
// failed host. Remerge chains, last-leaf relocations and repeated
// events against the same group must all preserve it.
func FuzzRemergeTiling(f *testing.F) {
	f.Add(uint8(9), uint8(3), uint16(300), []byte{0, 1, 2})
	f.Add(uint8(12), uint8(4), uint16(700), []byte{2, 2, 5, 1, 0})
	f.Add(uint8(6), uint8(2), uint16(128), []byte{1, 3, 0, 2, 1, 3})
	f.Add(uint8(16), uint8(4), uint16(1024), []byte{7, 6, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, ranksB, perNodeB uint8, size uint16, crashes []byte) {
		ranks := int(ranksB)%24 + 2
		perNode := int(perNodeB)%4 + 1
		topo, err := mpi.BlockTopology(ranks, (ranks+perNode-1)/perNode)
		if err != nil {
			t.Skip()
		}
		mc := machine.Testbed640()
		mc.Nodes = topo.Nodes()
		avail := make([]int64, mc.Nodes)
		for i := range avail {
			// Uneven endowments steer planning toward multi-leaf trees.
			avail[i] = int64(size)/int64(i%3+1) + 1
		}
		ctx := &collio.Context{
			Topo:    topo,
			Machine: mc,
			Avail:   avail,
			FS:      pfs.DefaultConfig(4),
			Params:  collio.DefaultParams(int64(size) + 1),
		}
		chunk := int64(size)%2048 + 1
		reqs := make([]collio.RankRequest, ranks)
		for r := 0; r < ranks; r++ {
			reqs[r] = collio.RankRequest{
				Rank:    r,
				Extents: []pfs.Extent{{Offset: int64(r) * chunk, Length: chunk}},
			}
		}
		plan, state, err := New().PlanWithState(ctx, reqs)
		if err != nil {
			t.Skip()
		}
		handler := &Failover{State: state, Detect: 0.1}

		live := append([]collio.Domain(nil), plan.Domains...)
		var origAll []pfs.Extent
		origBytes := int64(0)
		for _, d := range live {
			origAll = append(origAll, d.Extents...)
			origBytes += d.Bytes
		}
		origUnion := pfs.NormalizeExtents(origAll)

		for evi, b := range crashes {
			node := int(b) % mc.Nodes
			if state.down[node] {
				continue
			}
			kind := faults.NodeCrash
			severity := 0.0
			if b >= 128 {
				kind = faults.MemCollapse
				severity = 0.9
			}
			var affected []int
			for di, d := range live {
				if d.Bytes > 0 && d.AggNode == node {
					affected = append(affected, di)
				}
			}
			ras, err := handler.OnHostFault(ctx, collio.HostFault{
				Node: node, Kind: kind, Time: float64(evi), Severity: severity,
			}, live, affected)
			if err != nil {
				// Legitimate only when the cluster has no live host left to
				// relocate onto.
				liveHosts := 0
				for n := 0; n < mc.Nodes; n++ {
					if !state.down[n] {
						liveHosts++
					}
				}
				if liveHosts > 0 {
					t.Fatalf("event %d (node %d, %s): handler failed with %d live hosts: %v",
						evi, node, kind, liveHosts, err)
				}
				return
			}
			if err := collio.ApplyReassignments(live, ras); err != nil {
				t.Fatalf("event %d: apply: %v", evi, err)
			}

			// Tiling invariant: same union, same total, per-domain extent
			// sums intact (equal measure of union and sum proves disjointness
			// for integer extents), and every survivor on a live host.
			var all []pfs.Extent
			sum := int64(0)
			for di, d := range live {
				if d.Bytes == 0 {
					continue
				}
				if got := pfs.TotalBytes(d.Extents); got != d.Bytes {
					t.Fatalf("event %d: domain %d extents sum %d != Bytes %d", evi, di, got, d.Bytes)
				}
				if state.down[d.AggNode] {
					t.Fatalf("event %d: domain %d still placed on failed node %d", evi, di, d.AggNode)
				}
				all = append(all, d.Extents...)
				sum += d.Bytes
			}
			union := pfs.NormalizeExtents(all)
			if !reflect.DeepEqual(union, origUnion) {
				t.Fatalf("event %d: live domains no longer tile the original region\n got %v\nwant %v",
					evi, union, origUnion)
			}
			if sum != origBytes {
				t.Fatalf("event %d: total bytes %d != original %d (overlap or loss)", evi, sum, origBytes)
			}
		}
	})
}
