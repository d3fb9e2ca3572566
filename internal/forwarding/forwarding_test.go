package forwarding

import (
	"testing"

	"mcio/internal/collio"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/workload"
)

func testContext(t *testing.T, extraNodes int) (*collio.Context, []collio.RankRequest) {
	t.Helper()
	topo, err := mpi.BlockTopology(24, 4) // 6 compute nodes
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes() + extraNodes
	avail := make([]int64, mc.Nodes)
	for i := range avail {
		avail[i] = mc.MemPerNode
	}
	ctx := &collio.Context{
		Topo:    topo,
		Machine: mc,
		Avail:   avail,
		FS:      pfs.DefaultConfig(8),
		Params:  collio.DefaultParams(1 << 20),
	}
	w := workload.IOR{Ranks: 24, BlockSize: 256 << 10, TransferSize: 256 << 10, Segments: 4}
	reqs, err := w.Requests()
	if err != nil {
		t.Fatal(err)
	}
	return ctx, reqs
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Forwarders: 2, BufferBytes: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Forwarders: 0, BufferBytes: 1}).Validate(); err == nil {
		t.Fatal("zero forwarders accepted")
	}
	if err := (Config{Forwarders: 1}).Validate(); err == nil {
		t.Fatal("zero buffer accepted")
	}
}

func TestCostBasics(t *testing.T) {
	ctx, reqs := testContext(t, 2)
	res, err := Cost(ctx, reqs, collio.Write, sim.DefaultOptions(), Config{Forwarders: 2, BufferBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "io-forwarding" {
		t.Fatalf("strategy = %q", res.Strategy)
	}
	if res.UserBytes != 24<<20 {
		t.Fatalf("user bytes = %d", res.UserBytes)
	}
	if res.Bandwidth <= 0 || res.Aggregators != 2 {
		t.Fatalf("result: %+v", res)
	}
	// Forwarding moves every byte over the network to the I/O nodes.
	if res.Totals.NetBytes < res.UserBytes {
		t.Fatalf("net bytes %d < user bytes %d", res.Totals.NetBytes, res.UserBytes)
	}
}

func TestCostNeedsForwarderNodes(t *testing.T) {
	ctx, reqs := testContext(t, 0) // no room for forwarders
	_, err := Cost(ctx, reqs, collio.Write, sim.DefaultOptions(), Config{Forwarders: 2, BufferBytes: 1 << 20})
	if err == nil {
		t.Fatal("missing forwarder nodes accepted")
	}
}

func TestCostReducesRequestsVsIndependent(t *testing.T) {
	ctx, reqs := testContext(t, 2)
	indep, err := collio.CostIndependent(ctx, reqs, collio.Write, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := Cost(ctx, reqs, collio.Write, sim.DefaultOptions(), Config{Forwarders: 2, BufferBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	// Merging at the forwarders must not issue more storage requests than
	// the clients would independently.
	if fwd.Totals.Requests > indep.Totals.Requests {
		t.Fatalf("forwarding requests %d > independent %d", fwd.Totals.Requests, indep.Totals.Requests)
	}
}

func TestCostDeterministic(t *testing.T) {
	ctx, reqs := testContext(t, 3)
	cfg := Config{Forwarders: 3, BufferBytes: 512 << 10}
	a, err := Cost(ctx, reqs, collio.Read, sim.DefaultOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cost(ctx, reqs, collio.Read, sim.DefaultOptions(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds {
		t.Fatal("nondeterministic")
	}
}

func TestCostEmptyRequests(t *testing.T) {
	ctx, _ := testContext(t, 1)
	res, err := Cost(ctx, nil, collio.Write, sim.DefaultOptions(), Config{Forwarders: 1, BufferBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.UserBytes != 0 || res.MaxRounds != 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

// TestCostRejectsBadRequests checks that a rank outside the topology,
// or an extent of negative length, is an error rather than a panic.
func TestCostRejectsBadRequests(t *testing.T) {
	ctx, reqs := testContext(t, 2)
	cfg := Config{Forwarders: 2, BufferBytes: 1 << 20}
	for name, bad := range map[string]collio.RankRequest{
		"rank -1":        {Rank: -1, Extents: []pfs.Extent{{Offset: 0, Length: 64}}},
		"rank Size":      {Rank: ctx.Topo.Size(), Extents: []pfs.Extent{{Offset: 0, Length: 64}}},
		"negative bytes": {Rank: 1, Extents: []pfs.Extent{{Offset: 0, Length: -1}}},
	} {
		if _, err := Cost(ctx, append(reqs[:len(reqs):len(reqs)], bad), collio.Write, sim.DefaultOptions(), cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBufferSizeControlsRounds(t *testing.T) {
	ctx, reqs := testContext(t, 2)
	big, err := Cost(ctx, reqs, collio.Write, sim.DefaultOptions(), Config{Forwarders: 2, BufferBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	small, err := Cost(ctx, reqs, collio.Write, sim.DefaultOptions(), Config{Forwarders: 2, BufferBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if small.MaxRounds <= big.MaxRounds {
		t.Fatalf("rounds: small buffer %d, big buffer %d", small.MaxRounds, big.MaxRounds)
	}
}
