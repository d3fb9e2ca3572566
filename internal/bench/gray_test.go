package bench

import (
	"reflect"
	"strings"
	"testing"
)

// The gray acceptance campaign: under seeded gray faults with repair
// on, every invariant must hold — adaptive runs move exactly the
// static payload, every hedged byte is deduplicated, every injected
// corruption is detected and repaired, files match their fault-free
// oracles, and the pinned duel ends with the adaptive plan strictly
// faster.
func TestGrayCampaignClean(t *testing.T) {
	rep, err := Gray(ChaosConfig{Seed: 1, Ops: 12, Rate: 2, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("invariant violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.SuspectEvents == 0 {
		t.Fatal("campaign raised no suspicion")
	}
	if rep.ProactiveFailovers == 0 {
		t.Fatal("no proactive failover fired")
	}
	if rep.HedgedChunks == 0 || rep.DedupedChunkBytes == 0 {
		t.Fatalf("real-byte hedging idle: %+v", rep)
	}
	if rep.HedgedBytes != rep.DedupedBytes {
		t.Fatalf("hedged %d bytes but deduped %d", rep.HedgedBytes, rep.DedupedBytes)
	}
	if rep.Injected() == 0 || rep.Undetected() != 0 {
		t.Fatalf("detection: %d injected, %d undetected", rep.Injected(), rep.Undetected())
	}
	if rep.Unrepaired != 0 {
		t.Fatalf("%d corruptions unrepaired with repair on", rep.Unrepaired)
	}
	if rep.DuelAdaptiveSeconds >= rep.DuelStaticSeconds {
		t.Fatalf("duel: adaptive %.4fs not faster than static %.4fs",
			rep.DuelAdaptiveSeconds, rep.DuelStaticSeconds)
	}
	if s := rep.String(); !strings.Contains(s, "all held") {
		t.Fatalf("summary %q does not report clean invariants", s)
	}
}

// The gray campaign's repair-off run: the shared round trip must detect
// every injected corruption exactly and account each detection
// unrepaired, and hedging — which rides the repair protocol — must stay
// idle.
func TestGrayRepairOffDetectsEveryInjection(t *testing.T) {
	rep, err := Gray(ChaosConfig{Seed: 7, Ops: 10, Rate: 4, Repair: false})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("invariant violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.Injected() == 0 {
		t.Fatal("campaign injected nothing")
	}
	if int(rep.Detected) != rep.Injected() {
		t.Fatalf("detected %d of %d injected corruptions", rep.Detected, rep.Injected())
	}
	if rep.Repaired != 0 || rep.HedgedChunks != 0 {
		t.Fatalf("repair or real-byte hedging ran with repair disabled: %+v", rep)
	}
	if rep.Unrepaired != rep.Detected {
		t.Fatalf("unrepaired %d != detected %d", rep.Unrepaired, rep.Detected)
	}
}

// Same config twice: the gray campaign is a pure function of its
// config.
func TestGrayDeterministic(t *testing.T) {
	a, err := Gray(ChaosConfig{Seed: 11, Ops: 6, Rate: 2, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Gray(ChaosConfig{Seed: 11, Ops: 6, Rate: 2, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("gray campaigns with identical configs diverged:\n a %+v\n b %+v", a, b)
	}
}

// Zero rate: nothing is injected, nothing goes undetected, and the
// clean-path checks (hedged dedup, oracle identity, the duel) still
// run and hold.
func TestGrayZeroRateClean(t *testing.T) {
	rep, err := Gray(ChaosConfig{Seed: 3, Ops: 4, Rate: 0, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("invariant violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if rep.Injected() != 0 {
		t.Fatalf("rate 0 injected %d corruptions", rep.Injected())
	}
	if rep.HedgedChunks == 0 {
		t.Fatal("clean-path hedging idle")
	}
	if rep.DuelAdaptiveSeconds >= rep.DuelStaticSeconds {
		t.Fatalf("duel: adaptive %.4fs not faster than static %.4fs",
			rep.DuelAdaptiveSeconds, rep.DuelStaticSeconds)
	}
}
