package pfs

import (
	"testing"

	"mcio/internal/health"
	"mcio/internal/obs"
)

func TestBreakerSetPerTargetIsolation(t *testing.T) {
	bs := NewBreakerSet()
	o := obs.New()
	bs.SetObserver(o)

	bs.OnFailure(0, 0.1)
	bs.OnFailure(0, 0.15)
	bs.OnFailure(0, 0.2) // target 0 opens
	if bs.State(0) != health.BreakerOpen {
		t.Fatalf("target 0 state = %v, want open", bs.State(0))
	}
	if bs.State(1) != health.BreakerClosed || !bs.Allow(1, 0.3) {
		t.Fatal("target 1 must be unaffected by target 0's failures")
	}
	if bs.Allow(0, 0.24) {
		t.Fatal("open target 0 allowed traffic")
	}

	// Probe at 0.25 (0.2 plus the 0.05 s open window), success closes.
	if !bs.Allow(0, 0.26) {
		t.Fatal("probe not admitted")
	}
	bs.OnSuccess(0, 0.27)
	if bs.State(0) != health.BreakerClosed {
		t.Fatalf("state after healthy probe = %v, want closed", bs.State(0))
	}

	if v := o.Counter("pfs.breaker_opens", obs.L("ost", "0")).Value(); v != 1 {
		t.Fatalf("pfs.breaker_opens{ost=0} = %d, want 1", v)
	}
	if v := o.Counter("pfs.breaker_fast_fails", obs.L("ost", "0")).Value(); v != 1 {
		t.Fatalf("pfs.breaker_fast_fails{ost=0} = %d, want 1", v)
	}
	if bs.Opens() != 1 || bs.FastFails() != 1 {
		t.Fatalf("totals opens=%d fastFails=%d, want 1/1", bs.Opens(), bs.FastFails())
	}
}

func TestBreakerSetNilSafe(t *testing.T) {
	var bs *BreakerSet
	if !bs.Allow(0, 0) || bs.State(0) != health.BreakerClosed ||
		bs.Opens() != 0 || bs.FastFails() != 0 {
		t.Fatal("nil BreakerSet must behave as all-closed")
	}
	bs.OnFailure(0, 0)
	bs.OnSuccess(0, 0)
}
