package history

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mcio/internal/obs"
)

func reportHistory() *TrendResult {
	recs := driftHistory(10, 0.01)
	host := &obs.HostInfo{GitCommit: "abc123def456", GoVersion: "go1.22", GOMAXPROCS: 4, NumCPU: 4}
	for i := range recs {
		recs[i].Rec.Host = host
	}
	recs = append(recs, RecordFile{Path: "chaos.json", Rec: rec("chaos", 7777,
		obs.RunEntry{Name: "chaos/detection", Metrics: map[string]float64{"detected": 301, "repair_bytes": 1024}})})
	return Trend(recs, Options{})
}

// TestReportDeterministic is the acceptance check: the HTML report is
// byte-identical across reruns on the same history (run under -race by
// the CI observability race step).
func TestReportDeterministic(t *testing.T) {
	tr := reportHistory()
	render := func() []byte {
		var b bytes.Buffer
		if err := WriteReport(&b, tr); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	first := render()
	for i := 0; i < 3; i++ {
		if !bytes.Equal(render(), first) {
			t.Fatalf("report rendering differs across reruns (attempt %d)", i)
		}
	}
	// And across a fresh analysis of the same records, not just a
	// re-render of one TrendResult.
	var b bytes.Buffer
	if err := WriteReport(&b, reportHistory()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), first) {
		t.Fatal("report differs across fresh Trend() analyses of the same history")
	}
}

func TestReportSelfContainedHTML(t *testing.T) {
	var b bytes.Buffer
	if err := WriteReport(&b, reportHistory()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, banned := range []string{"<script", "http://", "https://", "src=", "@import"} {
		if strings.Contains(out, banned) {
			t.Errorf("report is not self-contained: found %q", banned)
		}
	}
	for _, must := range []string{
		"<!DOCTYPE html>", "<svg", "polyline", "DRIFT",
		"mc/write/mem=16",                 // the drifting entry is named
		"chaos/detection", "repair_bytes", // chaos records flow through
		"abc123def456", "go1.22", // provenance surfaces
		"prefers-color-scheme: dark", // dark mode is selected, not flipped
		"<title>",                    // native tooltips, no JS
	} {
		if !strings.Contains(out, must) {
			t.Errorf("report missing %q", must)
		}
	}
	// One sparkline per tracked series.
	if got, want := strings.Count(out, "<svg"), len(reportHistory().Verdicts); got != want {
		t.Errorf("%d sparklines for %d series", got, want)
	}
}

func TestReportEscapesEntryNames(t *testing.T) {
	recs := []RecordFile{
		{Path: "a", Rec: rec("fig6", 1, bwEntry(`x<b>&"inject"`, 1000))},
		{Path: "b", Rec: rec("fig6", 2, bwEntry(`x<b>&"inject"`, 1001))},
	}
	var b bytes.Buffer
	if err := WriteReport(&b, Trend(recs, Options{})); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "x<b>") {
		t.Error("entry name not HTML-escaped")
	}
	if !strings.Contains(b.String(), "x&lt;b&gt;") {
		t.Error("escaped entry name missing from report")
	}
}

func TestSparklineGeometryStaysInViewport(t *testing.T) {
	s := &Series{Entry: "e", Metric: "bandwidth_mbps", Better: HigherBetter}
	for i := 0; i < 12; i++ {
		s.Points = append(s.Points, Point{RecordIndex: i, Value: 100 + float64(i%5)*30})
	}
	var b strings.Builder
	writeSparkline(&b, s)
	svg := b.String()
	var x, y float64
	for _, part := range strings.Split(svg, "cx=\"")[1:] {
		if _, err := fmt.Sscanf(part, "%f\" cy=\"%f\"", &x, &y); err != nil {
			t.Fatalf("unparseable circle in %s: %v", part, err)
		}
		if x < 0 || x > sparkW || y < 0 || y > sparkH {
			t.Errorf("point (%.1f, %.1f) outside %gx%g viewport", x, y, sparkW, sparkH)
		}
	}
}
