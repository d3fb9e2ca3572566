package bench

import (
	"strings"
	"testing"
)

var allViews = []View{ViewRender, ViewLedger, ViewObserve, ViewProfile, ViewChaos}

// TestRegistry checks the one experiment table every front end reads:
// names are unique, every record offers a view, each view's usage list
// and unknown-name error come from the same records, and Ledger runs
// every ledger name but the million-rank ones.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for i := range experiments {
		e := &experiments[i]
		if seen[e.Name] || e.Name == All {
			t.Errorf("experiment name %q is not unique", e.Name)
		}
		seen[e.Name] = true
		views := 0
		for _, v := range allViews {
			if e.offers(v) {
				views++
			}
		}
		if views == 0 {
			t.Errorf("experiment %q offers no view", e.Name)
		}
		if e.Observe != nil && e.Figure == nil {
			t.Errorf("experiment %q observes without a Figure builder", e.Name)
		}
	}
	for _, v := range allViews {
		names := Names(v)
		for _, e := range In(v) {
			got, err := Lookup(v, e.Name)
			if err != nil || got != e {
				t.Errorf("view %d: Lookup(%q) = %v, %v", v, e.Name, got, err)
			}
		}
		_, err := Lookup(v, "bogus")
		if err == nil || !strings.HasSuffix(err.Error(), "(valid: "+strings.Join(names, ", ")+")") {
			t.Errorf("view %d: unknown-name error %v does not list %v", v, err, names)
		}
	}
	if names := Names(ViewRender); names[len(names)-1] != All {
		t.Errorf("render view must offer %q last: %v", All, names)
	}
	for _, e := range In(ViewLedger) {
		// The HostCost ledgers are the million-rank sweeps, 5-10 s each;
		// CI's perf gate runs them against the committed baselines.
		if e.HostCost {
			continue
		}
		// Seed 5 keeps a live relocation host at every fault rate of the
		// fault sweep (see TestLedgerTrajectoryAndFaults).
		rec, err := Ledger(e.Name, testScale, 5)
		if err != nil {
			t.Errorf("Ledger(%q): %v", e.Name, err)
			continue
		}
		if rec.Name != e.Name || len(rec.Entries) == 0 {
			t.Errorf("Ledger(%q): record %q with %d entries", e.Name, rec.Name, len(rec.Entries))
		}
	}
}
