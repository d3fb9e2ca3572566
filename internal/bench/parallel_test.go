package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/obs"
)

// renderAll produces every user-visible byte of one Figure 7 sweep: the
// summary table, the details table and the JSON export.
func renderAll(t testing.TB, scale int64, seed uint64) string {
	t.Helper()
	s, err := sweep(fig7, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(Render(s))
	b.WriteString(RenderDetails(s))
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// The tentpole invariant: the parallel sweep engine renders byte-identical
// output to the serial path at any worker count. Cells land in per-index
// slots and are flattened in order, so the schedule cannot leak in.
func TestParallelSweepByteIdentical(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(1)
	want := renderAll(t, testScale, 42)
	for _, workers := range []int{2, 4, 16} {
		SetParallelism(workers)
		if got := renderAll(t, testScale, 42); got != want {
			t.Fatalf("workers=%d: rendered sweep differs from the serial run", workers)
		}
	}
}

// The run ledger — what `mcio bench -out` writes and the CI perf gate
// diffs against baselines/ — must be scheduling-invariant too.
func TestParallelLedgerByteIdentical(t *testing.T) {
	defer SetParallelism(0)
	marshal := func() []byte {
		rec, err := Ledger("fig6", testScale, 42)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	SetParallelism(1)
	want := marshal()
	SetParallelism(4)
	if got := marshal(); !bytes.Equal(got, want) {
		t.Fatal("fig6 ledger differs between serial and parallel runs")
	}
}

// Both fault grids fan (cell × strategy) runs out too; their points
// must come back in the serial order with the serial values, down to
// every trace entry and counter.
func TestParallelFaultSweepIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two runs of each fault grid")
	}
	defer SetParallelism(0)
	grids := []struct {
		name string
		run  func() ([]FaultPoint, error)
	}{
		{"faults", func() ([]FaultPoint, error) { return faultSweepRun(testScale, 42) }},
		{"fig-exa-faults at 600 ranks", func() ([]FaultPoint, error) {
			return runFaultGrid(smallExaPoint(t, 600, 100, 16), collio.Write, exaFaultCells())
		}},
	}
	for _, g := range grids {
		SetParallelism(1)
		want, err := g.run()
		if err != nil {
			t.Fatal(err)
		}
		SetParallelism(4)
		got, err := g.run()
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the parallel grid differs from the serial one", g.name)
		}
	}
}

// observeArtifacts renders everything an observe run exports: the
// summary, the Chrome trace and the metrics snapshot.
func observeArtifacts(t testing.TB, run func() (*ObserveResult, error)) string {
	t.Helper()
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString(res.Summary)
	if err := obs.WriteChromeTrace(&b, res.Obs.Trace); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetricsJSON(&b, res.Obs.Metrics); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// Observe and ObserveFaults fan both strategies out against one shared
// Observer; the exported trace and metrics must still be byte-identical
// to the serial run (tracer PIDs are pre-registered, spans sort
// deterministically, shared counters are commutative adds). Run under
// -race in CI, this is also the race-cleanliness assertion for
// concurrent obs usage.
func TestParallelObserveByteIdentical(t *testing.T) {
	defer SetParallelism(0)
	runs := []struct {
		name string
		run  func() (*ObserveResult, error)
	}{
		{"observe fig7", func() (*ObserveResult, error) {
			return Observe("fig7", testScale, 42, 16, collio.Write)
		}},
		{"observe fig7 -faults 2 -op read", func() (*ObserveResult, error) {
			return ObserveFaults(testScale, 42, 16, collio.Read, 2)
		}},
	}
	for _, r := range runs {
		SetParallelism(1)
		want := observeArtifacts(t, r.run)
		SetParallelism(4)
		if got := observeArtifacts(t, r.run); got != want {
			t.Errorf("%s: artifacts differ between serial and parallel runs", r.name)
		}
	}
}

// BenchmarkFig6Sweep measures the full Figure 6 sweep end to end at
// each distinct worker budget of 1, 2, 4 and GOMAXPROCS: every run
// plans, validates and prices each cell. Expect ~min(workers, cores)×
// speedup on a multi-core runner and parity on a single-core host.
func BenchmarkFig6Sweep(b *testing.B) {
	defer SetParallelism(0)
	budgets := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	slices.Sort(budgets)
	for _, workers := range slices.Compact(budgets) {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			SetParallelism(workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sweep(fig6, testScale, 42); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
