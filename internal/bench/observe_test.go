package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/obs"
)

// TestObserveFig7 checks one instrumented fig7 run: it must yield a
// valid Chrome trace on simulated time and a metrics snapshot carrying
// per-node network counters, per-OST PFS counters, and per-node paging
// events for both strategies. Simulated traffic is counted per node
// only, so no metric carries a rank label.
func TestObserveFig7(t *testing.T) {
	res, err := Observe("fig7", testScale, 42, 16, collio.Write)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Summary, "two-phase") || !strings.Contains(res.Summary, "memory-conscious") {
		t.Fatalf("summary misses a strategy:\n%s", res.Summary)
	}
	if !strings.Contains(res.Summary, "bound by") {
		t.Fatalf("summary misses the binding tally:\n%s", res.Summary)
	}

	// Metrics snapshot: the required families, each present for both
	// strategies.
	type fam struct {
		perOST, perNode bool
	}
	want := map[string]fam{
		"net.bytes_out":          {perNode: true},
		"net.msgs":               {perNode: true},
		"pfs.bytes_written":      {perOST: true},
		"pfs.requests":           {perOST: true},
		"memmodel.paging_events": {perNode: true},
	}
	seen := map[string]map[string]bool{} // family -> strategies seen
	for _, p := range res.Obs.Metrics.Snapshot() {
		if _, ok := p.Labels["rank"]; ok {
			t.Errorf("%s{%v} is counted per rank", p.Name, p.Labels)
		}
		f, ok := want[p.Name]
		if !ok {
			continue
		}
		if f.perOST && p.Labels["ost"] == "" {
			t.Errorf("%s{%v} misses ost label", p.Name, p.Labels)
		}
		if f.perNode && p.Labels["node"] == "" {
			t.Errorf("%s{%v} misses node label", p.Name, p.Labels)
		}
		if seen[p.Name] == nil {
			seen[p.Name] = map[string]bool{}
		}
		seen[p.Name][p.Labels["strategy"]] = true
	}
	for name := range want {
		for _, strat := range []string{"two-phase", "memory-conscious"} {
			if !seen[name][strat] {
				t.Errorf("metric %s missing for strategy %s", name, strat)
			}
		}
	}

	// Trace export: valid JSON, two strategy processes, monotonic ts.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, res.Obs.Trace); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			PID  int            `json:"pid"`
			Name string         `json:"name"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	procs := map[string]bool{}
	lastTs := -1.0
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			procs[e.Args["name"].(string)] = true
		}
		if e.Ph == "X" {
			if e.Ts < lastTs {
				t.Fatalf("trace ts not monotonic: %v after %v", e.Ts, lastTs)
			}
			lastTs = e.Ts
		}
	}
	if !procs["two-phase"] || !procs["memory-conscious"] {
		t.Fatalf("trace processes = %v, want both strategies", procs)
	}
}

func TestObserveRejectsUnknownFigure(t *testing.T) {
	if _, err := Observe("fig9", testScale, 42, 16, collio.Write); err == nil {
		t.Fatal("unknown figure accepted")
	}
}
