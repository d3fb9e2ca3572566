package bench

import (
	"bytes"
	"strings"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/obs/timeline"
	"mcio/internal/sim"
)

func TestProfileRejectsUnknownExperiment(t *testing.T) {
	if _, err := Profile("fig9", testScale, 42, 16, collio.Write, 0); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestProfileFig6Deterministic is the CI byte-identity gate in
// miniature: the same arguments must produce byte-identical HTML and
// CSV reports across runs.
func TestProfileFig6Deterministic(t *testing.T) {
	render := func() (string, string, string) {
		res, err := Profile("fig6", testScale, 42, 16, collio.Write, 0)
		if err != nil {
			t.Fatal(err)
		}
		var html, csv bytes.Buffer
		if err := timeline.WriteReport(&html, res.Rec, res.Sat); err != nil {
			t.Fatal(err)
		}
		if err := timeline.WriteCSV(&csv, res.Rec); err != nil {
			t.Fatal(err)
		}
		return res.Summary, html.String(), csv.String()
	}
	s1, h1, c1 := render()
	s2, h2, c2 := render()
	if s1 != s2 {
		t.Error("profile summary not deterministic")
	}
	if h1 != h2 {
		t.Error("timeline HTML not byte-identical across reruns")
	}
	if c1 != c2 {
		t.Error("timeline CSV not byte-identical across reruns")
	}
	for _, banned := range []string{"<script", "http://", "https://"} {
		if strings.Contains(h1, banned) {
			t.Errorf("timeline HTML is not self-contained: found %q", banned)
		}
	}
}

// TestProfileGrayJournalOrdering pins the acceptance scenario: the
// seeded gray duel must show the OSTSlowdown onset, then a suspicion
// crossing, then a breaker-open on the same entity's timeline, with
// both detection lags measured.
func TestProfileGrayJournalOrdering(t *testing.T) {
	res, err := Profile("gray", testScale, 42, 16, collio.Write, 0)
	if err != nil {
		t.Fatal(err)
	}
	victim := timeline.Ent("ost", 0)
	var onset, suspect, breakerOpen float64 = -1, -1, -1
	for _, ev := range res.Rec.J().Events() {
		if ev.Entity != victim || ev.T < 0 {
			continue
		}
		switch {
		case ev.Kind == timeline.EvFault && strings.Contains(ev.Detail, "ost-slowdown") && onset < 0:
			onset = ev.T
		case ev.Kind == timeline.EvSuspect && suspect < 0:
			suspect = ev.T
		case ev.Kind == timeline.EvBreakerOpen && breakerOpen < 0:
			breakerOpen = ev.T
		}
	}
	if onset < 0 || suspect < 0 || breakerOpen < 0 {
		t.Fatalf("missing events on %s: onset=%v suspect=%v breaker-open=%v",
			victim, onset, suspect, breakerOpen)
	}
	if !(onset <= suspect && suspect <= breakerOpen) {
		t.Fatalf("events out of order on %s: onset=%v suspect=%v breaker-open=%v",
			victim, onset, suspect, breakerOpen)
	}
	// The victim's busy series exists alongside the events — one
	// timeline carries both.
	snap := res.Rec.Snapshot()
	found := false
	for _, s := range snap {
		if s.Entity == victim && s.Metric == "busy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no busy series recorded for %s", victim)
	}
	if !strings.Contains(res.Summary, "duel detection lag: onset->suspect") {
		t.Error("summary missing the duel detection-lag line")
	}
}

// TestGrayLedgerCarriesDetectionLag checks the ledger plumbing the CI
// trend gate consumes: the gray campaign's report converts into a
// gray/latency entry with both lag metrics measured.
func TestGrayLedgerCarriesDetectionLag(t *testing.T) {
	rep, err := Gray(ChaosConfig{Seed: 42, Ops: 2, Rate: 2, Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DuelOnsetToSuspectSeconds <= 0 || rep.DuelOnsetToReactionSeconds <= 0 {
		t.Fatalf("duel lags unmeasured: suspect=%v reaction=%v",
			rep.DuelOnsetToSuspectSeconds, rep.DuelOnsetToReactionSeconds)
	}
	var entry map[string]float64
	for _, e := range grayEntries(rep) {
		if e.Name == "gray/latency" {
			entry = e.Metrics
		}
	}
	if entry == nil {
		t.Fatal("no gray/latency ledger entry")
	}
	if entry["onset_to_suspect_seconds"] != rep.DuelOnsetToSuspectSeconds ||
		entry["onset_to_reaction_seconds"] != rep.DuelOnsetToReactionSeconds {
		t.Fatalf("ledger metrics %v do not match report lags", entry)
	}
}

// TestCostUnchangedByTimeline is the pure-observation invariant:
// attaching a recorder must not change a priced result, so committed
// perf baselines stay valid with or without profiling.
func TestCostUnchangedByTimeline(t *testing.T) {
	price := func(rec *timeline.Recorder) float64 {
		cfg := Fig6Config(testScale, 42)
		wl, _, err := Fig6Workload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.MemMB = []int{16}
		reqs, err := wl.Requests()
		if err != nil {
			t.Fatal(err)
		}
		plat, err := cfg.platform()
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := cfg.context(plat, cfg.scaled(16*MB), wl.TotalBytes())
		if err != nil {
			t.Fatal(err)
		}
		ctx.Timeline = rec
		opt := sim.DefaultOptions()
		opt.Overlap = cfg.Overlap
		plan, err := core.New().Plan(ctx, reqs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := collio.Cost(ctx, plan, reqs, collio.Write, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res.Seconds
	}
	bare := price(nil)
	recorded := price(timeline.NewRecorder(0, 0))
	if bare != recorded {
		t.Fatalf("recorder changed the priced result: %v without vs %v with", bare, recorded)
	}
}
