package collio

import (
	"strings"
	"testing"

	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
)

func testContext(t *testing.T) *Context {
	t.Helper()
	topo, err := mpi.BlockTopology(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.Testbed640()
	mc.Nodes = 3
	return &Context{
		Topo:    topo,
		Machine: mc,
		Avail:   []int64{1 << 30, 1 << 30, 1 << 30},
		FS:      pfs.DefaultConfig(4),
		Params:  DefaultParams(1 << 20),
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Op strings")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams(1 << 20).Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Params{
		{CollBufSize: 0, MsgInd: 1, MsgGroup: 1, Nah: 1},
		{CollBufSize: 1, MsgInd: 0, MsgGroup: 1, Nah: 1},
		{CollBufSize: 1, MsgInd: 1, MsgGroup: 0, Nah: 1},
		{CollBufSize: 1, MsgInd: 1, MsgGroup: 1, Nah: 0},
		{CollBufSize: 1, MsgInd: 1, MsgGroup: 1, Nah: 1, MemMin: -1},
	}
	for i, p := range bads {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestContextValidate(t *testing.T) {
	ctx := testContext(t)
	if err := ctx.Validate(); err != nil {
		t.Fatal(err)
	}
	short := *ctx
	short.Avail = []int64{1}
	if err := short.Validate(); err == nil {
		t.Fatal("short Avail accepted")
	}
	badFS := *ctx
	badFS.FS.Targets = 0
	if err := badFS.Validate(); err == nil {
		t.Fatal("bad FS accepted")
	}
	badParams := *ctx
	badParams.Params.Nah = 0
	if err := badParams.Validate(); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestDomainRounds(t *testing.T) {
	d := Domain{Bytes: 100, BufferBytes: 30}
	if d.Rounds() != 4 {
		t.Fatalf("rounds = %d, want 4", d.Rounds())
	}
	d = Domain{Bytes: 90, BufferBytes: 30}
	if d.Rounds() != 3 {
		t.Fatalf("rounds = %d, want 3", d.Rounds())
	}
	if (Domain{Bytes: 0, BufferBytes: 30}).Rounds() != 0 {
		t.Fatal("empty domain needs no rounds")
	}
}

func validPlan() (*Plan, []RankRequest) {
	reqs := []RankRequest{
		{Rank: 0, Extents: []pfs.Extent{{Offset: 0, Length: 100}}},
		{Rank: 1, Extents: []pfs.Extent{{Offset: 100, Length: 100}}},
	}
	plan := &Plan{
		Strategy: "test",
		Groups:   1,
		GroupRanks: [][]int{
			{0, 1},
		},
		Domains: []Domain{
			{Extents: []pfs.Extent{{Offset: 0, Length: 120}}, Bytes: 120, Group: 0, Aggregator: 0, AggNode: 0, BufferBytes: 64},
			{Extents: []pfs.Extent{{Offset: 120, Length: 80}}, Bytes: 80, Group: 0, Aggregator: 1, AggNode: 0, BufferBytes: 64},
		},
	}
	return plan, reqs
}

func TestPlanValidateAccepts(t *testing.T) {
	plan, reqs := validPlan()
	if err := plan.Validate(reqs); err != nil {
		t.Fatal(err)
	}
}

func TestPlanValidateRejects(t *testing.T) {
	mutations := map[string]func(p *Plan){
		"empty domain":   func(p *Plan) { p.Domains[0].Extents = nil; p.Domains[0].Bytes = 0 },
		"bytes mismatch": func(p *Plan) { p.Domains[0].Bytes = 999 },
		"no buffer":      func(p *Plan) { p.Domains[0].BufferBytes = 0 },
		"overlap": func(p *Plan) {
			p.Domains[1].Extents = []pfs.Extent{{Offset: 100, Length: 100}}
			p.Domains[1].Bytes = 100
		},
		"no aggregator": func(p *Plan) { p.Domains[0].Aggregator = -1 },
		"bad group":     func(p *Plan) { p.Domains[0].Group = 5 },
		"coverage hole": func(p *Plan) {
			p.Domains[1].Extents = []pfs.Extent{{Offset: 120, Length: 70}}
			p.Domains[1].Bytes = 70
		},
		// Same bytes, same coverage, but out of file order: pricing
		// slices a domain's data space assuming file order.
		"non-canonical domain": func(p *Plan) {
			p.Domains[0].Extents = []pfs.Extent{{Offset: 60, Length: 60}, {Offset: 0, Length: 60}}
		},
		"negative domain extent": func(p *Plan) {
			p.Domains[1].Extents = []pfs.Extent{{Offset: 120, Length: 90}, {Offset: 300, Length: -10}}
		},
	}
	for name, mutate := range mutations {
		plan, reqs := validPlan()
		mutate(plan)
		if err := plan.Validate(reqs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A negative request extent is an error naming the rank, not a panic.
	plan, reqs := validPlan()
	reqs[1].Extents = []pfs.Extent{{Offset: 100, Length: 100}, {Offset: 400, Length: -3}}
	if err := plan.Validate(reqs); err == nil || !strings.Contains(err.Error(), "rank 1") {
		t.Errorf("negative request extent: err = %v, want an error naming rank 1", err)
	}
	// The negative domain extent is named by its domain.
	plan, reqs = validPlan()
	plan.Domains[1].Extents = []pfs.Extent{{Offset: 120, Length: 90}, {Offset: 300, Length: -10}}
	if err := plan.Validate(reqs); err == nil || !strings.Contains(err.Error(), "domain 1") {
		t.Errorf("negative domain extent: err = %v, want an error naming domain 1", err)
	}
}

// {5,5},{0,5} covers a {0,10} request byte for byte
// but is not in file order.
func TestPlanValidateRejectsUnsortedDomain(t *testing.T) {
	reqs := []RankRequest{{Rank: 0, Extents: []pfs.Extent{{Offset: 0, Length: 10}}}}
	plan := &Plan{Strategy: "test", Groups: 1, GroupRanks: [][]int{{0}}, Domains: []Domain{{
		Extents: []pfs.Extent{{Offset: 5, Length: 5}, {Offset: 0, Length: 5}}, Bytes: 10, BufferBytes: 4,
	}}}
	if err := plan.Validate(reqs); err == nil || !strings.Contains(err.Error(), "not canonical") {
		t.Fatalf("err = %v, want a non-canonical domain error", err)
	}
}

func TestPlanAggregatorsAndBytes(t *testing.T) {
	plan, _ := validPlan()
	aggs := plan.Aggregators()
	if len(aggs) != 2 || aggs[0] != 0 || aggs[1] != 1 {
		t.Fatalf("aggregators = %v", aggs)
	}
	if plan.TotalBytes() != 200 {
		t.Fatalf("total bytes = %d", plan.TotalBytes())
	}
}

func TestCostBasics(t *testing.T) {
	ctx := testContext(t)
	plan, reqs := validPlan()
	res, err := Cost(ctx, plan, reqs, Write, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.UserBytes != 200 {
		t.Fatalf("user bytes = %d", res.UserBytes)
	}
	if res.Seconds <= 0 || res.Bandwidth <= 0 {
		t.Fatalf("degenerate cost: %+v", res)
	}
	if res.Domains != 2 || res.Groups != 1 || res.Aggregators != 2 {
		t.Fatalf("structure: %+v", res)
	}
	if res.MaxRounds != 2 { // 120 bytes over 64-byte buffer
		t.Fatalf("rounds = %d, want 2", res.MaxRounds)
	}
	if !strings.Contains(res.String(), "write") {
		t.Fatal("String misses op")
	}
}

func TestCostDeterministic(t *testing.T) {
	ctx := testContext(t)
	plan, reqs := validPlan()
	a, err := Cost(ctx, plan, reqs, Read, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cost(ctx, plan, reqs, Read, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds || a.Bandwidth != b.Bandwidth {
		t.Fatalf("nondeterministic cost: %v vs %v", a.Seconds, b.Seconds)
	}
}

func TestCostPagingHurts(t *testing.T) {
	ctx := testContext(t)
	plan, reqs := validPlan()
	healthy, err := Cost(ctx, plan, reqs, Write, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan2, _ := validPlan()
	plan2.Domains[0].PagedSeverity = 1
	plan2.Domains[1].PagedSeverity = 1
	paged, err := Cost(ctx, plan2, reqs, Write, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	if paged.Seconds <= healthy.Seconds {
		t.Fatalf("paged plan not slower: %v vs %v", paged.Seconds, healthy.Seconds)
	}
	if paged.PagedAggregators != 2 {
		t.Fatalf("paged aggregators = %d", paged.PagedAggregators)
	}
}

func TestCostReadMirrorsWrite(t *testing.T) {
	// With a symmetric cost model, read and write of the same plan price
	// identically except for message direction — equal here because the
	// topology is symmetric.
	ctx := testContext(t)
	plan, reqs := validPlan()
	w, err := Cost(ctx, plan, reqs, Write, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Cost(ctx, plan, reqs, Read, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	if w.Totals.ShufBytes != r.Totals.ShufBytes || w.Totals.IOBytes != r.Totals.IOBytes {
		t.Fatalf("byte accounting differs between read and write: %+v vs %+v", w.Totals, r.Totals)
	}
}
