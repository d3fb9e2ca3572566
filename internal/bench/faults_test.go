package bench

import (
	"bytes"
	"reflect"
	"regexp"
	"strconv"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/faults"
	"mcio/internal/pfs"
)

func TestFaultSweepShapeAndControlRow(t *testing.T) {
	tab, err := FaultSweep(testScale, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(faultRates())*2 {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(faultRates())*2)
	}
	// The rate-0 control rows must show zero overhead and zero recovery
	// work: the fault path is inert when nothing is injected.
	for _, row := range tab.Rows[:2] {
		if row[0] != "0" {
			t.Fatalf("first rows should be the rate-0 control, got rate %q", row[0])
		}
		if row[3] != "+0.0%" {
			t.Errorf("%s control overhead = %q, want +0.0%%", row[1], row[3])
		}
		for i, col := range []int{5, 6, 7, 8, 9} {
			if row[col] != "0" {
				t.Errorf("%s control column %d = %q, want 0", row[1], i, row[col])
			}
		}
	}
	// Higher fault rates must never report negative recovery time, and
	// injected events grow with the rate for at least one strategy.
	for _, row := range tab.Rows {
		if rec, _ := strconv.ParseFloat(row[4], 64); rec < 0 {
			t.Errorf("negative recovery seconds in row %v", row)
		}
	}
}

func TestFaultSweepDeterministic(t *testing.T) {
	a, err := FaultSweep(testScale, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultSweep(testScale, 11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different tables:\n%v\n%v", a.Rows, b.Rows)
	}
	c, err := FaultSweep(testScale, 12)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Rows, c.Rows) {
		t.Fatal("different seeds produced identical fault schedules")
	}
}

func TestObserveFaultsExportsRecoveryTelemetry(t *testing.T) {
	res, err := ObserveFaults(testScale, 7, 16, collio.Write, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary == "" {
		t.Fatal("empty summary")
	}
	// The metrics snapshot must carry fault-injection counters.
	snap := res.Obs.Metrics.Snapshot()
	found := false
	for _, m := range snap {
		if m.Name == "faults.injected" || m.Name == "faults.failovers" || m.Name == "faults.stalls" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no fault counters in the observe snapshot")
	}
}

// End-to-end acceptance: a write-then-read IOR-style run whose plan
// failed over from a crashed aggregator node still produces a file whose
// contents match the oracle: recovery moves responsibilities, never
// bytes. Priced OST retries are covered in collio
// (TestOSTTransientRetriesPriced).
func TestE2EWriteReadAfterNodeCrashFailover(t *testing.T) {
	cfg := Fig7Config(testScale, 3)
	wl, name := Fig7Workload(cfg)
	p, err := newPoint(cfg, wl, name, 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, rs := p.ctx, p.rs

	plan, state, err := core.New().PlanWithStateSet(ctx, rs)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.ValidateSet(rs); err != nil {
		t.Fatal(err)
	}

	// Mid-operation, the first aggregator's node crashes: the failover
	// handler remerges its domains and the rewritten plan executes.
	victim := plan.Domains[0].AggNode
	handler := &core.Failover{State: state, Detect: 0.01}
	var affected []int
	for i, d := range plan.Domains {
		if d.Bytes > 0 && d.AggNode == victim {
			affected = append(affected, i)
		}
	}
	ras, err := handler.OnHostFault(ctx, collio.HostFault{Node: victim, Kind: faults.NodeCrash},
		plan.Domains, affected)
	if err != nil {
		t.Fatal(err)
	}
	if err := collio.ApplyReassignments(plan.Domains, ras); err != nil {
		t.Fatal(err)
	}
	recovered := plan.Compact()
	if err := recovered.ValidateSet(rs); err != nil {
		t.Fatalf("recovered plan invalid: %v", err)
	}
	for _, d := range recovered.Domains {
		if d.AggNode == victim {
			t.Fatalf("recovered plan still aggregates on crashed node %d", victim)
		}
	}

	fsys, err := pfs.NewFileSystem(ctx.FS)
	if err != nil {
		t.Fatal(err)
	}
	file := fsys.Open("e2e-faults")

	writeBufs := make([][]byte, rs.Len())
	var oracleSize int64
	for rk := range writeBufs {
		list := rs.List(rk)
		writeBufs[rk] = make([]byte, pfs.TotalBytes(list))
		for i := range writeBufs[rk] {
			writeBufs[rk][i] = byte((rk*131 + i*7 + 3) % 251)
		}
		if len(list) > 0 {
			oracleSize = max(oracleSize, list[len(list)-1].End())
		}
	}
	if err := collio.Exec(ctx, recovered, rs, writeBufs, file, collio.Write); err != nil {
		t.Fatalf("faulted write exec: %v", err)
	}

	oracle := make([]byte, oracleSize)
	for rk, buf := range writeBufs {
		var pos int64
		for _, e := range rs.List(rk) {
			copy(oracle[e.Offset:e.End()], buf[pos:pos+e.Length])
			pos += e.Length
		}
	}
	got := make([]byte, oracleSize)
	if _, err := file.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, oracle) {
		t.Fatal("file contents differ from oracle after faulted write")
	}

	// Collective read back through the recovered plan round-trips.
	readBufs := make([][]byte, len(writeBufs))
	for rk := range readBufs {
		readBufs[rk] = make([]byte, len(writeBufs[rk]))
	}
	if err := collio.Exec(ctx, recovered, rs, readBufs, file, collio.Read); err != nil {
		t.Fatalf("faulted read exec: %v", err)
	}
	for rk := range readBufs {
		if !bytes.Equal(readBufs[rk], writeBufs[rk]) {
			t.Fatalf("rank %d read back different data", rk)
		}
	}
}

// A zero fault rate leaves the ObserveFaults run identical in elapsed
// time and bandwidth to the clean Observe path for the same workload,
// in either direction.
func TestObserveFaultsZeroRateMatchesClean(t *testing.T) {
	for _, op := range []collio.Op{collio.Write, collio.Read} {
		faulted, err := ObserveFaults(testScale, 9, 16, op, 0)
		if err != nil {
			t.Fatal(err)
		}
		clean, err := Observe("fig7", testScale, 9, 16, op)
		if err != nil {
			t.Fatal(err)
		}
		got, want := summaryPrices(faulted.Summary), summaryPrices(clean.Summary)
		if len(want) != 2 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: zero-rate faulted prices %v, clean prices %v\nfaulted:\n%s\nclean:\n%s",
				op, got, want, faulted.Summary, clean.Summary)
		}
		// No recovery of any kind may appear at rate 0.
		for _, m := range faulted.Obs.Metrics.Snapshot() {
			switch m.Name {
			case "faults.injected", "faults.failovers", "faults.stalls", "sim.recovery_rounds":
				t.Fatalf("%s: metric %s present in a zero-rate run", op, m.Name)
			}
		}
	}
}

// summaryPrices maps each strategy of an observe summary to the
// simulated seconds and MB/s its headline line prints.
func summaryPrices(summary string) map[string]string {
	line := regexp.MustCompile(`(?m)^([a-z-]+): .*?([0-9.]+s simulated \([0-9.]+ MB/s\))`)
	out := map[string]string{}
	for _, m := range line.FindAllStringSubmatch(summary, -1) {
		out[m[1]] = m[2]
	}
	return out
}
