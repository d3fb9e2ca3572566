package history

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mcio/internal/obs"
)

// The host-cost detectors' settings. hostTol is the relative rise both
// detectors tolerate: a step is a single run above the rolling median
// of up to hostWindow preceding runs by more than hostTol, a drift a
// fitted rise across the series beyond it, judged once a series holds
// hostMinRuns points.
const (
	hostTol     = 0.05
	hostWindow  = 5
	hostMinRuns = 4
)

// hostKey is the part of a record's host stamp that host wall time
// depends on; records without a stamp share the zero key.
type hostKey struct {
	goVersion          string
	gomaxprocs, numCPU int
}

func hostOf(r *obs.RunRecord) hostKey {
	if r.Host == nil {
		return hostKey{}
	}
	return hostKey{r.Host.GoVersion, r.Host.GOMAXPROCS, r.Host.NumCPU}
}

// Point is one observation in a metric series.
type Point struct {
	RecordIndex int // index into the loaded record series (oldest = 0)
	Value       float64
}

// Series is one tracked metric of one experiment entry across the
// record history.
type Series struct {
	Entry  string // entry name, e.g. "two-phase/write/mem=16"
	Metric string // "bandwidth_mbps", "wall_seconds", or a Metrics key
	Points []Point
}

// hostCost reports whether the series is a host cost (a /harness
// entry's metric) rather than a price.
func (s *Series) hostCost() bool { return strings.HasSuffix(s.Entry, obs.HarnessSuffix) }

// Values returns just the observation values, oldest first.
func (s *Series) Values() []float64 {
	vs := make([]float64, len(s.Points))
	for i, p := range s.Points {
		vs[i] = p.Value
	}
	return vs
}

// Verdict classifies one series. A price is ok or changed: prices are
// deterministic, so any difference between two consecutive records
// carrying the entry is a change. A host cost is ok, a step (an abrupt
// rise against the rolling median) or a drift (a slow fitted rise
// whose accumulated change crosses the tolerance even though every
// single run stayed inside it).
type Verdict struct {
	Series      *Series
	Kind        string  // "ok", "changed", "step", "drift"
	First, Last float64 // first and last observed values
	SlopePerRun float64 // host cost: fitted relative change per run
	TotalRel    float64 // host cost: fitted relative change across the whole series
	StepAt      int     // record index of the change or first bad step, -1 if none
	StepRel     float64 // host cost: relative deviation from the rolling median at StepAt
	Why         string  // human explanation when Kind != "ok"
}

// Flagged reports whether this verdict should fail a gate.
func (v *Verdict) Flagged() bool { return v.Kind != "ok" }

// TrendResult is the analysis of a whole record series.
type TrendResult struct {
	Records  []RecordFile
	Verdicts []Verdict // sorted by entry name, then metric name
}

// Flagged returns the verdicts that should fail a gate.
func (t *TrendResult) Flagged() []Verdict {
	var out []Verdict
	for _, v := range t.Verdicts {
		if v.Flagged() {
			out = append(out, v)
		}
	}
	return out
}

// Trend builds the per-entry metric series from a loaded record
// history (oldest first) and classifies each one. Entries are matched
// across records by name; entries absent from some records simply
// contribute shorter series (the pairwise diff gate already fails on
// vanished entries). Single-point series are ok by definition. Host
// wall time only compares across like hosts: an entry's
// host_wall_seconds series keeps just the records whose host
// fingerprint (Go version, GOMAXPROCS, CPU count) matches that of the
// newest record carrying the entry.
func Trend(recs []RecordFile) *TrendResult {
	type key struct{ entry, metric string }
	series := map[key]*Series{}
	var order []key
	add := func(entry, metric string, ri int, val float64) {
		k := key{entry, metric}
		s, ok := series[k]
		if !ok {
			s = &Series{Entry: entry, Metric: metric}
			series[k] = s
			order = append(order, k)
		}
		s.Points = append(s.Points, Point{RecordIndex: ri, Value: val})
	}
	newestHost := map[string]hostKey{}
	for _, rf := range recs {
		for _, e := range rf.Rec.Entries {
			newestHost[e.Name] = hostOf(rf.Rec)
		}
	}
	for ri, rf := range recs {
		for _, e := range rf.Rec.Entries {
			tracked := false
			if e.BandwidthMBps > 0 {
				add(e.Name, "bandwidth_mbps", ri, e.BandwidthMBps)
				tracked = true
			}
			if e.WallSeconds > 0 {
				add(e.Name, "wall_seconds", ri, e.WallSeconds)
				tracked = true
			}
			if !tracked {
				// Metrics-only entries: chaos detection counts, repair
				// bytes, degradation rungs, and the harness's host cost.
				keys := make([]string, 0, len(e.Metrics))
				for k := range e.Metrics {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					if k == "host_wall_seconds" && hostOf(rf.Rec) != newestHost[e.Name] {
						continue
					}
					add(e.Name, k, ri, e.Metrics[k])
				}
			}
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].entry != order[j].entry {
			return order[i].entry < order[j].entry
		}
		return order[i].metric < order[j].metric
	})
	res := &TrendResult{Records: recs}
	for _, k := range order {
		res.Verdicts = append(res.Verdicts, classify(series[k], recs))
	}
	return res
}

// classify judges one series: a price by exact comparison of each
// point with the one before it, a host cost by both detectors. Step
// takes precedence over drift: an abrupt changepoint explains any
// fitted slope.
func classify(s *Series, recs []RecordFile) Verdict {
	v := Verdict{Series: s, Kind: "ok", StepAt: -1}
	n := len(s.Points)
	if n > 0 {
		v.First, v.Last = s.Points[0].Value, s.Points[n-1].Value
	}
	if n < 2 {
		return v
	}
	if !s.hostCost() {
		for i := 1; i < n; i++ {
			if prev, p := s.Points[i-1], s.Points[i]; p.Value != prev.Value {
				v.Kind, v.StepAt = "changed", p.RecordIndex
				v.Why = fmt.Sprintf("%s -> %s at run %d (%s)", fmtExact(prev.Value), fmtExact(p.Value),
					p.RecordIndex, filepath.Base(recs[p.RecordIndex].Path))
				return v
			}
		}
		return v
	}
	vals := s.Values()

	// Rolling-median changepoint: each point against the median of up
	// to hostWindow preceding points. The median absorbs single outliers
	// in the window, so a genuine level shift stands out even if the
	// runs just before it were noisy.
	for i := 1; i < n; i++ {
		m := median(vals[max(i-hostWindow, 0):i])
		if m == 0 {
			continue
		}
		if rel := (vals[i] - m) / m; rel > hostTol {
			v.Kind, v.StepAt, v.StepRel = "step", s.Points[i].RecordIndex, rel
			v.Why = fmt.Sprintf("step of %+.1f%% vs rolling median at run %d (tol %.1f%%)",
				rel*100, v.StepAt, hostTol*100)
			return v
		}
	}

	// Least-squares drift: fit value = a + b·x over the series; the
	// fitted relative change across the whole series is b·(n-1)/a.
	// Each individual run may be well inside tolerance — that is the
	// slow-compounding regression a pairwise comparison cannot see.
	if n >= hostMinRuns {
		a, b := leastSquares(vals)
		base := a
		if base == 0 {
			base = mean(vals)
		}
		if base != 0 {
			v.SlopePerRun = b / base
			v.TotalRel = b * float64(n-1) / base
			if v.TotalRel > hostTol {
				v.Kind = "drift"
				v.Why = fmt.Sprintf("drift of %+.2f%%/run accumulating to %+.1f%% over %d runs (tol %.1f%%)",
					v.SlopePerRun*100, v.TotalRel*100, n, hostTol*100)
			}
		}
	}
	return v
}

// median of a non-empty slice (copied, input left unsorted).
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// leastSquares fits y = a + b·x with x = 0..n-1 and returns (a, b).
func leastSquares(ys []float64) (a, b float64) {
	n := float64(len(ys))
	var sx, sy, sxx, sxy float64
	for i, y := range ys {
		x := float64(i)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return mean(ys), 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b
}

// settings names the one rule per kind of series, for the headers of
// the text and HTML renderings.
func settings() string {
	return fmt.Sprintf("prices exact; host cost tol %.1f%%, window %d, min-runs %d",
		hostTol*100, hostWindow, hostMinRuns)
}

// status is a verdict's status cell: "ok", or its kind and why.
func (v *Verdict) status() string {
	if !v.Flagged() {
		return "ok"
	}
	return strings.ToUpper(v.Kind) + ": " + v.Why
}

// Render formats the verdict table, one row per tracked series,
// flagged rows marked CHANGED/STEP/DRIFT, mirroring DiffResult.Render.
func (t *TrendResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "perf trend: %d records, %d series (%s)\n", len(t.Records), len(t.Verdicts), settings())
	fmt.Fprintf(&b, "%-28s %-18s %5s %12s %12s %11s %9s  %s\n",
		"entry", "metric", "runs", "first", "last", "slope/run", "total", "status")
	for i := range t.Verdicts {
		v := &t.Verdicts[i]
		fmt.Fprintf(&b, "%-28s %-18s %5d %12s %12s %11s %9s  %s\n",
			v.Series.Entry, v.Series.Metric, len(v.Series.Points),
			fmtVal(v.First), fmtVal(v.Last),
			fmtPct(v.SlopePerRun), fmtPct(v.TotalRel), v.status())
	}
	flagged := t.Flagged()
	if len(flagged) == 0 {
		fmt.Fprintf(&b, "no changes, steps or drift (%d series analyzed)\n", len(t.Verdicts))
	} else {
		kinds := map[string]int{}
		for _, v := range flagged {
			kinds[v.Kind]++
		}
		fmt.Fprintf(&b, "%d series flagged (%d changed, %d step, %d drift)\n",
			len(flagged), kinds["changed"], kinds["step"], kinds["drift"])
	}
	return b.String()
}

// fmtVal renders a metric value compactly and deterministically.
func fmtVal(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.6g", v)
}

// fmtExact renders a price exactly: the shortest decimal that parses
// back to the same float.
func fmtExact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// fmtPct renders a relative change. Values that are zero up to float
// rounding (a least-squares fit of a constant series is only zero to
// ~1e-16) render as "-", never as a signed -0.00%.
func fmtPct(rel float64) string {
	if math.Abs(rel) < 5e-7 {
		return "-"
	}
	return fmt.Sprintf("%+.2f%%", rel*100)
}
