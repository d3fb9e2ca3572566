package timeline

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.AddSpan("ost 0", "busy", 0, 1)
	r.AddRate("node 0", "nic_bytes", 0, 10)
	r.AddGauge("ost 0", "queue", 0, 3)
	r.SetMeta("k", "v")
	r.J().Record(1, EvFault, "ost 0", "x")
	r.J().RecordSeq(EvRepair, "run", "y")
	if r.Snapshot() != nil || r.Meta() != nil || r.Span() != 0 || r.Tick() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if r.J().Events() != nil {
		t.Fatal("nil journal leaked state")
	}
	rep := Analyze(r)
	if len(rep.Resources) != 0 || len(rep.Phases) != 0 {
		t.Fatal("nil recorder produced analysis")
	}
}

func TestSpanBinning(t *testing.T) {
	r := NewRecorder(1, 0)
	// A span covering [0.5, 2.5) splits 0.5 / 1.0 / 0.5 across bins.
	r.AddSpan("ost 0", "busy", 0.5, 2.5)
	views := r.Snapshot()
	if len(views) != 1 {
		t.Fatalf("want 1 series, got %d", len(views))
	}
	v := views[0]
	want := []float64{0.5, 1.0, 0.5}
	if len(v.Values) != len(want) {
		t.Fatalf("want %d bins, got %d", len(want), len(v.Values))
	}
	for i := range want {
		if math.Abs(v.Values[i]-want[i]) > 1e-12 {
			t.Fatalf("bin %d: want %g, got %g", i, want[i], v.Values[i])
		}
	}
	if r.Span() != 2.5 {
		t.Fatalf("span: want 2.5, got %g", r.Span())
	}
}

func TestTickDoublingKeepsBudget(t *testing.T) {
	r := NewRecorder(1, 4)
	for i := 0; i < 64; i++ {
		r.AddSpan("ost 0", "busy", float64(i), float64(i)+0.5)
		r.AddGauge("ost 0", "queue", float64(i), float64(i%7))
		r.AddRate("node 0", "nic_bytes", float64(i), 100)
	}
	for _, v := range r.Snapshot() {
		if len(v.Values) > 4 {
			t.Fatalf("%s %s: %d bins exceeds budget 4", v.Entity, v.Metric, len(v.Values))
		}
	}
	if r.Tick() != 16 {
		t.Fatalf("tick: want 16 after doubling, got %g", r.Tick())
	}
	// Busy mass is preserved through the merges: 64 spans of 0.5s.
	for _, v := range r.Snapshot() {
		if v.Kind != Busy {
			continue
		}
		sum := 0.0
		for _, x := range v.Values {
			sum += x * v.Tick // utilization back to seconds
		}
		if math.Abs(sum-32) > 1e-9 {
			t.Fatalf("busy seconds not preserved: want 32, got %g", sum)
		}
	}
}

func TestDownsampleMatchesCoarseRecorder(t *testing.T) {
	// Recording at a fine tick then downsampling must agree (to float
	// tolerance) with recording at the coarse tick directly.
	fine := NewRecorder(1, 8)   // will double to tick 4 over 32s
	coarse := NewRecorder(4, 8) // starts there
	for i := 0; i < 32; i++ {
		s, e := float64(i)+0.25, float64(i)+0.75
		fine.AddSpan("ost 0", "busy", s, e)
		coarse.AddSpan("ost 0", "busy", s, e)
		fine.AddGauge("ost 0", "queue", float64(i), float64((i*13)%29))
		coarse.AddGauge("ost 0", "queue", float64(i), float64((i*13)%29))
	}
	fv, cv := fine.Snapshot(), coarse.Snapshot()
	if fine.Tick() != coarse.Tick() {
		t.Fatalf("ticks differ: %g vs %g", fine.Tick(), coarse.Tick())
	}
	for i := range fv {
		if len(fv[i].Values) != len(cv[i].Values) {
			t.Fatalf("%s %s: bin counts differ", fv[i].Entity, fv[i].Metric)
		}
		for b := range fv[i].Values {
			if math.Abs(fv[i].Values[b]-cv[i].Values[b]) > 1e-9 {
				t.Fatalf("%s %s bin %d: fine %g vs coarse %g",
					fv[i].Entity, fv[i].Metric, b, fv[i].Values[b], cv[i].Values[b])
			}
		}
	}
}

func TestGaugeKeepsBinMax(t *testing.T) {
	r := NewRecorder(1, 8)
	r.AddGauge("ost 0", "queue", 0.2, 3)
	r.AddGauge("ost 0", "queue", 0.8, 7)
	r.AddGauge("ost 0", "queue", 0.9, 5)
	v := r.Snapshot()[0]
	if v.Values[0] != 7 {
		t.Fatalf("gauge bin: want max 7, got %g", v.Values[0])
	}
}

func TestSnapshotNaturalOrder(t *testing.T) {
	r := NewRecorder(1, 8)
	r.AddGauge("node 10", "queue", 0, 1)
	r.AddGauge("node 2", "queue", 0, 1)
	r.AddGauge("ost 1", "busy", 0, 1)
	var ents []string
	for _, v := range r.Snapshot() {
		ents = append(ents, v.Entity)
	}
	want := "node 2,node 10,ost 1"
	if got := strings.Join(ents, ","); got != want {
		t.Fatalf("order: want %q, got %q", want, got)
	}
}

func TestJournalOrdering(t *testing.T) {
	j := &Journal{}
	j.Record(2.0, EvSuspect, "ost 0", "")
	j.RecordSeq(EvRepair, "run", "late unstamped")
	j.Record(1.0, EvFault, "ost 0", "")
	j.Record(1.0, EvFault, "ost 1", "") // same T: sequence breaks the tie
	evs := j.Events()
	if len(evs) != 4 {
		t.Fatalf("want 4 events, got %d", len(evs))
	}
	if evs[0].Entity != "ost 0" || evs[0].T != 1.0 {
		t.Fatalf("first event wrong: %+v", evs[0])
	}
	if evs[1].Entity != "ost 1" {
		t.Fatalf("tie not broken by seq: %+v", evs[1])
	}
	if evs[2].Kind != EvSuspect {
		t.Fatalf("want suspect third: %+v", evs[2])
	}
	if evs[3].T >= 0 {
		t.Fatalf("unstamped must sort last: %+v", evs[3])
	}
}

func TestDetectionLags(t *testing.T) {
	j := &Journal{}
	j.Record(0.5, EvSuspect, "ost 0", "pre-onset noise") // before onset: ignored
	j.Record(1.0, EvFault, "ost 0", "slowdown")
	j.Record(1.5, EvSuspect, "ost 0", "")
	j.Record(2.5, EvBreakerOpen, "ost 0", "")
	j.Record(3.0, EvFault, "node 2", "crash")
	j.Record(3.2, EvFailover, "node 2", "")
	j.Record(9.0, EvSuspect, "ost 5", "no onset here") // no fault: excluded
	lags := DetectionLags(j.Events())
	if len(lags) != 2 {
		t.Fatalf("want 2 lag entries, got %d: %+v", len(lags), lags)
	}
	if lags[0].Entity != "node 2" || lags[1].Entity != "ost 0" {
		t.Fatalf("lag order wrong: %+v", lags)
	}
	ost := lags[1]
	if got := ost.OnsetToSuspect(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("onset→suspect: want 0.5, got %g", got)
	}
	if got := ost.OnsetToReact(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("onset→react: want 1.5, got %g", got)
	}
	node := lags[0]
	if node.Suspect >= 0 {
		t.Fatalf("node 2 never suspected, got %g", node.Suspect)
	}
	if got := node.OnsetToSuspect(); got != -1 {
		t.Fatalf("unmeasurable lag must be -1, got %g", got)
	}
}

func TestAnalyzeSaturation(t *testing.T) {
	r := NewRecorder(1, 64)
	// ost 0 ramps to sustained saturation from t=4; ost 1 stays at 40%.
	for i := 0; i < 10; i++ {
		frac := 0.2
		if i >= 4 {
			frac = 0.95
		}
		r.AddSpan("ost 0", "busy", float64(i), float64(i)+frac)
		r.AddSpan("ost 1", "busy", float64(i), float64(i)+0.4)
	}
	rep := Analyze(r)
	if len(rep.Resources) != 2 {
		t.Fatalf("want 2 resources, got %d", len(rep.Resources))
	}
	var ost0 Resource
	for _, res := range rep.Resources {
		if res.Entity == "ost 0" {
			ost0 = res
		} else if res.SatT >= 0 {
			t.Fatalf("%s should not saturate: %+v", res.Entity, res)
		}
	}
	if ost0.SatT != 4 {
		t.Fatalf("ost 0 saturation: want t=4, got %g", ost0.SatT)
	}
	if ost0.KneeT < 3 || ost0.KneeT > 5 {
		t.Fatalf("ost 0 knee: want near 4, got %g", ost0.KneeT)
	}
	if len(rep.Phases) != 1 || rep.Phases[0].Name != "run" {
		t.Fatalf("want single fallback phase, got %+v", rep.Phases)
	}
	if !rep.Phases[0].Saturated || rep.Phases[0].First != "ost 0" {
		t.Fatalf("phase verdict wrong: %+v", rep.Phases[0])
	}
}

func TestAnalyzePhaseSegmentation(t *testing.T) {
	r := NewRecorder(1, 64)
	r.J().Record(0, EvPhase, "run", "metadata")
	r.J().Record(2, EvPhase, "run", "data")
	r.J().Record(3, EvPhase, "run", "data") // same name: merges
	// Metadata phase: node 0 busy; data phase: ost 0 saturates.
	r.AddSpan("node 0", "busy", 0, 1.2)
	for i := 2; i < 8; i++ {
		r.AddSpan("ost 0", "busy", float64(i), float64(i)+0.95)
	}
	rep := Analyze(r)
	if len(rep.Phases) != 2 {
		t.Fatalf("want 2 phases, got %+v", rep.Phases)
	}
	if rep.Phases[0].Name != "metadata" || rep.Phases[1].Name != "data" {
		t.Fatalf("phase names wrong: %+v", rep.Phases)
	}
	if !rep.Phases[1].Saturated || rep.Phases[1].First != "ost 0" {
		t.Fatalf("data phase should saturate on ost 0: %+v", rep.Phases[1])
	}
	out := rep.Render()
	if !strings.Contains(out, "phase data") || !strings.Contains(out, "first saturated ost 0") {
		t.Fatalf("render missing phase verdict:\n%s", out)
	}
}

func buildSampleRecorder() *Recorder {
	r := NewRecorder(0.5, 64)
	r.SetMeta("strategy", "memory-conscious")
	r.SetMeta("op", "write")
	r.J().Record(0, EvPhase, "run", "data")
	for i := 0; i < 12; i++ {
		t0 := float64(i)
		r.AddSpan("ost 0", "busy", t0, t0+0.8)
		r.AddSpan("node 1", "busy", t0, t0+0.3)
		r.AddGauge("ost 0", "queue", t0, float64(i%5))
		r.AddRate("node 1", "nic_bytes", t0, 1<<20)
	}
	r.J().Record(3, EvFault, "ost 0", "OSTSlowdown sev 5")
	r.J().Record(4.5, EvSuspect, "ost 0", "score 0.91")
	r.J().Record(5, EvBreakerOpen, "ost 0", "3 consecutive failures")
	r.J().RecordSeq(EvRepair, "run", "1 torn write rewritten")
	return r
}

func TestReportDeterministicAndSelfContained(t *testing.T) {
	render := func() string {
		r := buildSampleRecorder()
		var b bytes.Buffer
		if err := WriteReport(&b, r, Analyze(r)); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("report not byte-identical across reruns")
	}
	for _, banned := range []string{"<script", "http://", "https://", "@import"} {
		if strings.Contains(a, banned) {
			t.Fatalf("report not self-contained: found %q", banned)
		}
	}
	for _, want := range []string{"<svg", "ost 0", "breaker-open", "strategy=memory-conscious", "Saturation"} {
		if !strings.Contains(a, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestReportEscapesDetails(t *testing.T) {
	r := NewRecorder(1, 8)
	r.AddSpan("ost 0", "busy", 0, 1)
	r.J().Record(0.5, EvFault, "ost 0", `<img src=x onerror=alert(1)> & "quotes"`)
	r.SetMeta("op", "<b>write</b>")
	var b bytes.Buffer
	if err := WriteReport(&b, r, Analyze(r)); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "<img") || strings.Contains(out, "<b>write") {
		t.Fatal("report failed to escape user-controlled text")
	}
	if !strings.Contains(out, "&lt;img") {
		t.Fatal("escaped detail missing from report")
	}
}

func TestWriteCSV(t *testing.T) {
	r := buildSampleRecorder()
	var b bytes.Buffer
	if err := WriteCSV(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "row,entity,metric,kind,t_seconds,value,detail" {
		t.Fatalf("csv header wrong: %q", lines[0])
	}
	if !strings.Contains(out, "series,ost 0,busy,busy,") {
		t.Fatal("csv missing series rows")
	}
	if !strings.Contains(out, "event,ost 0,fault,,3,,OSTSlowdown sev 5") {
		t.Fatal("csv missing event row")
	}
	// Fields with commas/quotes must be quoted.
	r2 := NewRecorder(1, 8)
	r2.J().Record(1, EvFault, "ost 0", `a,b "c"`)
	var b2 bytes.Buffer
	if err := WriteCSV(&b2, r2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), `"a,b ""c"""`) {
		t.Fatalf("csv quoting wrong:\n%s", b2.String())
	}
}
