package memmodel

import (
	"testing"

	"mcio/internal/obs"
)

func TestSetAvailRecomputesSeverityMidRun(t *testing.T) {
	tr := NewTrackerFromAvail([]int64{100, 100})
	if !tr.Reserve(0, 80) {
		t.Fatal("80 of 100 should fit")
	}
	if got := tr.Severity(0); got != 0 {
		t.Fatalf("severity with backed reservation = %v, want 0", got)
	}

	// Mid-run the budget drops to 20: 60 of the 80 reserved bytes now page.
	tr.SetAvail(0, 20)
	if got := tr.Severity(0); got != 0.75 {
		t.Fatalf("severity after SetAvail(20) = %v, want 0.75", got)
	}
	if got := tr.Avail(0); got != 0 {
		t.Fatalf("Avail on over-committed node = %d, want 0", got)
	}
	if got := tr.overrun[0]; got != 60 {
		t.Fatalf("overrun = %d, want 60", got)
	}

	// Budget restored: severity returns to 0 and headroom reappears.
	tr.SetAvail(0, 200)
	if got := tr.Severity(0); got != 0 {
		t.Fatalf("severity after restore = %v, want 0", got)
	}
	if got := tr.Avail(0); got != 120 {
		t.Fatalf("Avail after restore = %d, want 120", got)
	}
}

func TestCollapseRemovesFractionOfBudget(t *testing.T) {
	tr := NewTrackerFromAvail([]int64{100})
	tr.Reserve(0, 40) // budget 100: 40 reserved, 60 free
	got := tr.Collapse(0, 0.9)
	if got != 10 {
		t.Fatalf("collapsed budget = %d, want 10", got)
	}
	// 40 reserved against a 10-byte budget: 30 bytes page.
	if s := tr.Severity(0); s != 0.75 {
		t.Fatalf("severity after collapse = %v, want 0.75", s)
	}
	// Clamping: a >1 fraction removes everything.
	tr2 := NewTrackerFromAvail([]int64{50})
	tr2.Reserve(0, 50)
	if b := tr2.Collapse(0, 2); b != 0 {
		t.Fatalf("over-clamped collapse left budget %d", b)
	}
	if s := tr2.Severity(0); s != 1 {
		t.Fatalf("severity with zero budget = %v, want 1", s)
	}
}

func TestMutationObsGauges(t *testing.T) {
	o := obs.New()
	tr := NewTrackerFromAvail([]int64{100})
	tr.SetObserver(o)
	tr.Reserve(0, 50)
	tr.Collapse(0, 0.5) // budget 100 -> 50

	if got := o.Gauge("memmodel.avail_bytes", obs.L("node", "0")).Value(); got != 50 {
		t.Fatalf("avail_bytes gauge = %v, want 50 (the new budget)", got)
	}
	if got := o.Counter("memmodel.collapse_events", obs.L("node", "0")).Value(); got != 1 {
		t.Fatalf("collapse_events = %v, want 1", got)
	}
	tr.SetAvail(0, 75)
	if got := o.Gauge("memmodel.avail_bytes", obs.L("node", "0")).Value(); got != 75 {
		t.Fatalf("avail_bytes gauge after SetAvail = %v, want 75", got)
	}
}

func TestSeverityZeroWithoutReservations(t *testing.T) {
	tr := NewTrackerFromAvail([]int64{10})
	tr.Collapse(0, 1)
	if s := tr.Severity(0); s != 0 {
		t.Fatalf("severity with nothing reserved = %v, want 0", s)
	}
}
