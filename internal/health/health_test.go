package health

import (
	"math"
	"testing"

	"mcio/internal/obs"
)

func feed(d *Detector, kind string, id int, value float64, n int) {
	for i := 0; i < n; i++ {
		d.Observe(kind, id, value)
	}
}

func TestDetectorSuspectsSustainedDegradation(t *testing.T) {
	d := NewDetector()
	feed(d, "ost", 0, 1.0, 30)
	if d.Suspected("ost", 0) {
		t.Fatal("healthy baseline must not be suspected")
	}
	if s := d.Score("ost", 0); s > 0.5 {
		t.Fatalf("healthy score = %v, want ~0", s)
	}
	feed(d, "ost", 0, 5.0, 30)
	if !d.Suspected("ost", 0) {
		t.Fatalf("5× degradation for 30 samples not suspected (score %v)", d.Score("ost", 0))
	}
	if d.Transitions() != 1 {
		t.Fatalf("transitions = %d, want 1", d.Transitions())
	}
	if ids := d.SuspectedIDs("ost"); len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("suspected ids = %v, want [0]", ids)
	}
}

func TestDetectorRecoversWithHysteresis(t *testing.T) {
	d := NewDetector()
	feed(d, "node", 3, 1.0, 30)
	feed(d, "node", 3, 6.0, 30)
	if !d.Suspected("node", 3) {
		t.Fatal("degraded node not suspected")
	}
	// One healthy sample must NOT clear it (hysteresis).
	d.Observe("node", 3, 1.0)
	if !d.Suspected("node", 3) {
		t.Fatal("a single healthy sample cleared suspicion — hysteresis missing")
	}
	feed(d, "node", 3, 1.0, 40)
	if d.Suspected("node", 3) {
		t.Fatalf("sustained health did not clear suspicion (score %v)", d.Score("node", 3))
	}
	// Re-degrading fires a second transition.
	feed(d, "node", 3, 6.0, 30)
	if d.Transitions() != 2 {
		t.Fatalf("transitions = %d, want 2", d.Transitions())
	}
}

// The robust baseline must not learn that slow is normal: after a long
// degradation the baseline mean stays near the healthy level.
func TestDetectorBaselineFreezesUnderAnomaly(t *testing.T) {
	d := NewDetector()
	feed(d, "ost", 1, 1.0, 30)
	feed(d, "ost", 1, 10.0, 200)
	e := d.ents[key{"ost", 1}]
	if e.mean > 2 {
		t.Fatalf("baseline absorbed the degradation: mean = %v", e.mean)
	}
	if !e.suspected {
		t.Fatal("still-degraded entity lost suspicion")
	}
}

func TestDetectorFlappingDoesNotThrash(t *testing.T) {
	d := NewDetector()
	feed(d, "ost", 2, 1.0, 30)
	// Alternate healthy/degraded: suspicion may enter, but must not
	// enter-and-clear on every flap cycle.
	for i := 0; i < 100; i++ {
		v := 1.0
		if i%2 == 0 {
			v = 6.0
		}
		d.Observe("ost", 2, v)
	}
	if tr := d.Transitions(); tr > 3 {
		t.Fatalf("flapping caused %d suspicion transitions — hysteresis too weak", tr)
	}
}

func TestDetectorExportsGauges(t *testing.T) {
	o := obs.New()
	d := NewDetector()
	d.SetObserver(o)
	feed(d, "ost", 0, 1.0, 30)
	feed(d, "ost", 0, 8.0, 30)
	if g := o.Gauge("health.suspicion", obs.L("kind", "ost"), obs.L("id", "0")).Value(); g < 2 {
		t.Fatalf("health.suspicion gauge = %v, want >= threshold", g)
	}
	if g := o.Gauge("health.suspected", obs.L("kind", "ost")).Value(); g != 1 {
		t.Fatalf("health.suspected gauge = %v, want 1", g)
	}
	if c := o.Counter("health.suspect_events", obs.L("kind", "ost"), obs.L("id", "0")).Value(); c != 1 {
		t.Fatalf("health.suspect_events = %d, want 1", c)
	}
}

func TestDetectorNilSafe(t *testing.T) {
	var d *Detector
	if d.Observe("ost", 0, 1) || d.Suspected("ost", 0) || d.Score("ost", 0) != 0 ||
		d.SuspectedIDs("ost") != nil || d.Transitions() != 0 {
		t.Fatal("nil detector must be inert")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	b := NewBreaker()
	if b.State() != BreakerClosed || !b.Allow(0) {
		t.Fatal("new breaker must be closed and allowing")
	}
	b.OnFailure(0.1)
	b.OnFailure(0.2)
	if b.State() != BreakerClosed {
		t.Fatal("breaker opened below threshold")
	}
	b.OnFailure(0.3) // third strike
	if b.State() != BreakerOpen || b.Opens() != 1 {
		t.Fatalf("state=%v opens=%d, want open/1", b.State(), b.Opens())
	}
	if b.Allow(0.34) {
		t.Fatal("open breaker allowed traffic before the probe deadline")
	}
	if b.FastFails() != 1 {
		t.Fatalf("fast fails = %d, want 1", b.FastFails())
	}
	// Probe deadline at 0.3+0.05: the next access is the half-open probe.
	if !b.Allow(0.36) || b.State() != BreakerHalfOpen {
		t.Fatalf("probe not admitted at deadline (state %v)", b.State())
	}
	// While the probe is in flight, everything else is still denied.
	if b.Allow(0.36) {
		t.Fatal("second access admitted during half-open probe")
	}
	b.OnSuccess(0.37)
	if b.State() != BreakerClosed {
		t.Fatalf("successful probe left state %v, want closed", b.State())
	}
	// A success resets the failure count: two more strikes stay closed.
	b.OnFailure(0.4)
	b.OnFailure(0.5)
	if b.State() != BreakerClosed {
		t.Fatal("failures before the success counted toward the threshold")
	}
}

// A failed probe doubles the open window, up to 20 base windows; a
// close resets it to the base window.
func TestBreakerFailedProbeBacksOff(t *testing.T) {
	b := NewBreaker()
	for i := 0; i < 3; i++ {
		b.OnFailure(0) // the third opens; probe at 0.05
	}
	if !b.Allow(0.05) {
		t.Fatal("probe not admitted")
	}
	b.OnFailure(0.05) // failed probe: reopen with doubled window, probe at 0.15
	if b.State() != BreakerOpen || b.Opens() != 2 {
		t.Fatalf("state=%v opens=%d, want open/2", b.State(), b.Opens())
	}
	if b.Allow(0.12) {
		t.Fatal("reopened breaker did not back off harder")
	}
	if !b.Allow(0.16) {
		t.Fatal("second probe not admitted after the grown window")
	}
	b.OnSuccess(0.17)
	if b.State() != BreakerClosed {
		t.Fatal("second probe success did not close")
	}
	// Closing resets the open span back to the base window.
	for i := 0; i < 3; i++ {
		b.OnFailure(1) // the third opens; probe at 1.05, not 1.1
	}
	if !b.Allow(1.06) {
		t.Fatal("open span did not reset after close")
	}
	// Failed probes grow the window 0.1, 0.2, 0.4, 0.8, then cap it at 1.
	now := 1.06
	for _, span := range []float64{0.1, 0.2, 0.4, 0.8, 1, 1} {
		b.OnFailure(now)
		if b.Allow(now + span - 0.01) {
			t.Fatalf("probe admitted before the %gs window", span)
		}
		now += span + 0.01
		if !b.Allow(now) {
			t.Fatalf("probe not admitted after the %gs window", span)
		}
	}
}

func TestWindowQuantile(t *testing.T) {
	w := NewWindow(8)
	if q := w.Quantile(0.95); q != 0 {
		t.Fatalf("empty window quantile = %v, want 0", q)
	}
	for _, v := range []float64{5, 1, 4, 2, 3} {
		w.Add(v)
	}
	if q := w.Quantile(0); q != 1 {
		t.Fatalf("p0 = %v, want 1", q)
	}
	if q := w.Quantile(1); q != 5 {
		t.Fatalf("p100 = %v, want 5", q)
	}
	if q := w.Quantile(0.5); q != 3 {
		t.Fatalf("p50 = %v, want 3", q)
	}
	// Ring behaviour: old samples age out.
	for i := 0; i < 8; i++ {
		w.Add(100)
	}
	if q := w.Quantile(0); q != 100 {
		t.Fatalf("aged-out samples still visible (p0 = %v)", q)
	}
	if w.Len() != 8 {
		t.Fatalf("len = %d, want 8", w.Len())
	}
}

func TestDetectorIgnoresNonFinite(t *testing.T) {
	d := NewDetector()
	feed(d, "ost", 0, 1.0, 20)
	d.Observe("ost", 0, math.NaN())
	d.Observe("ost", 0, math.Inf(1))
	if s := d.Score("ost", 0); math.IsNaN(s) || math.IsInf(s, 0) {
		t.Fatalf("non-finite samples poisoned the score: %v", s)
	}
}
