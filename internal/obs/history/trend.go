package history

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mcio/internal/obs"
)

// Direction says which way a metric is allowed to move.
type Direction int

const (
	// HigherBetter metrics (bandwidth) regress by falling.
	HigherBetter Direction = iota
	// LowerBetter metrics (wall seconds) regress by rising.
	LowerBetter
	// Steady metrics (chaos detection counts, repair bytes, degradation
	// rungs) regress by moving at all: any sustained change either way
	// is a behavioural shift worth failing on.
	Steady
)

// metricDirection classifies one key of a metrics-only entry. The
// harness's host-cost metrics regress by rising; every other key is a
// steady behavioural count.
func metricDirection(key string) Direction {
	if key == "host_wall_seconds" || key == "total_alloc_bytes" {
		return LowerBetter
	}
	return Steady
}

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

func (d Direction) String() string {
	switch d {
	case HigherBetter:
		return "higher-better"
	case LowerBetter:
		return "lower-better"
	default:
		return "steady"
	}
}

// Options tunes the trend detector. Zero values mean defaults.
type Options struct {
	// Tol is the relative tolerance shared by both detectors: a step is
	// a single-run deviation from the rolling median beyond Tol, a
	// drift is a fitted total change across the series beyond Tol.
	// Default obs.DefaultDiffTol (5%) — the same tolerance at which
	// pairwise `mcio diff` runs, which is the point: N sub-tolerance
	// steps that accumulate past Tol are exactly what diff cannot see.
	Tol float64
	// Window is the rolling-median changepoint window. Default 5.
	Window int
	// MinRuns is the fewest points a series needs before the drift
	// (slope) detector speaks; below it only steps are detectable.
	// Default 4.
	MinRuns int
}

func (o Options) tol() float64 {
	if o.Tol > 0 {
		return o.Tol
	}
	return obs.DefaultDiffTol
}

func (o Options) window() int {
	if o.Window > 0 {
		return o.Window
	}
	return 5
}

func (o Options) minRuns() int {
	if o.MinRuns > 0 {
		return o.MinRuns
	}
	return 4
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
	Better Direction
	Points []Point
}

// Values returns just the observation values, oldest first.
func (s *Series) Values() []float64 {
	vs := make([]float64, len(s.Points))
	for i, p := range s.Points {
		vs[i] = p.Value
	}
	return vs
}

// Verdict classifies one series: ok, step (an abrupt changepoint
// against the rolling median) or drift (a slow fitted slope whose
// accumulated change crosses tolerance even though every single run
// stayed inside it).
type Verdict struct {
	Series      *Series
	Kind        string  // "ok", "step", "drift"
	First, Last float64 // first and last observed values
	SlopePerRun float64 // fitted relative change per run
	TotalRel    float64 // fitted relative change across the whole series
	StepAt      int     // record index of the first bad step, -1 if none
	StepRel     float64 // relative deviation from the rolling median at StepAt
	Why         string  // human explanation when Kind != "ok"
}

// Flagged reports whether this verdict should fail a gate.
func (v *Verdict) Flagged() bool { return v.Kind != "ok" }

// TrendResult is the analysis of a whole record series.
type TrendResult struct {
	Records  []RecordFile
	Verdicts []Verdict // sorted by entry name, then metric name
	Opt      Options
}

// Flagged returns the verdicts that should fail a gate (step or drift).
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
func Trend(recs []RecordFile, opt Options) *TrendResult {
	type key struct{ entry, metric string }
	series := map[key]*Series{}
	var order []key
	add := func(entry, metric string, better Direction, ri int, val float64) {
		k := key{entry, metric}
		s, ok := series[k]
		if !ok {
			s = &Series{Entry: entry, Metric: metric, Better: better}
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
				add(e.Name, "bandwidth_mbps", HigherBetter, ri, e.BandwidthMBps)
				tracked = true
			}
			if e.WallSeconds > 0 {
				add(e.Name, "wall_seconds", LowerBetter, ri, e.WallSeconds)
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
					add(e.Name, k, metricDirection(k), ri, e.Metrics[k])
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
	res := &TrendResult{Records: recs, Opt: opt}
	for _, k := range order {
		res.Verdicts = append(res.Verdicts, classify(series[k], opt))
	}
	return res
}

// classify runs both detectors over one series. Step takes precedence
// over drift: an abrupt changepoint explains any fitted slope.
func classify(s *Series, opt Options) Verdict {
	v := Verdict{Series: s, Kind: "ok", StepAt: -1}
	n := len(s.Points)
	if n > 0 {
		v.First, v.Last = s.Points[0].Value, s.Points[n-1].Value
	}
	if n < 2 {
		return v
	}
	vals := s.Values()
	tol := opt.tol()

	// Rolling-median changepoint: each point against the median of up
	// to Window preceding points. The median absorbs single outliers in
	// the window, so a genuine level shift stands out even if the runs
	// just before it were noisy.
	for i := 1; i < n; i++ {
		lo := i - opt.window()
		if lo < 0 {
			lo = 0
		}
		m := median(vals[lo:i])
		if m == 0 {
			if vals[i] != 0 && s.Better == Steady {
				v.Kind, v.StepAt, v.StepRel = "step", s.Points[i].RecordIndex, 0
				v.Why = fmt.Sprintf("value moved off zero to %s at run %d", fmtVal(vals[i]), v.StepAt)
				return v
			}
			continue
		}
		rel := (vals[i] - m) / m
		if bad(s.Better, rel, tol) {
			v.Kind, v.StepAt, v.StepRel = "step", s.Points[i].RecordIndex, rel
			v.Why = fmt.Sprintf("step of %+.1f%% vs rolling median at run %d (tol %.1f%%)",
				rel*100, v.StepAt, tol*100)
			return v
		}
	}

	// Least-squares drift: fit value = a + b·x over the series; the
	// fitted relative change across the whole series is b·(n-1)/a.
	// Each individual run may be well inside tolerance — that is the
	// slow-compounding regression the pairwise gate cannot see.
	if n >= opt.minRuns() {
		a, b := leastSquares(vals)
		base := a
		if base == 0 {
			base = mean(vals)
		}
		if base != 0 {
			v.SlopePerRun = b / base
			v.TotalRel = b * float64(n-1) / base
			if bad(s.Better, v.TotalRel, tol) {
				v.Kind = "drift"
				v.Why = fmt.Sprintf("drift of %+.2f%%/run accumulating to %+.1f%% over %d runs (tol %.1f%%)",
					v.SlopePerRun*100, v.TotalRel*100, n, tol*100)
			}
		}
	}
	return v
}

// bad reports whether a relative change rel beyond tolerance moves in
// a failing direction for the metric.
func bad(d Direction, rel, tol float64) bool {
	switch d {
	case HigherBetter:
		return rel < -tol
	case LowerBetter:
		return rel > tol
	default: // Steady
		return rel < -tol || rel > tol
	}
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

// Render formats the verdict table, one row per tracked series,
// flagged rows marked STEP/DRIFT, mirroring DiffResult.Render.
func (t *TrendResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "perf trend: %d records, %d series (tol %.1f%%, window %d, min-runs %d)\n",
		len(t.Records), len(t.Verdicts), t.Opt.tol()*100, t.Opt.window(), t.Opt.minRuns())
	fmt.Fprintf(&b, "%-28s %-18s %5s %12s %12s %11s %9s  %s\n",
		"entry", "metric", "runs", "first", "last", "slope/run", "total", "status")
	for i := range t.Verdicts {
		v := &t.Verdicts[i]
		status := "ok"
		switch v.Kind {
		case "step":
			status = "STEP: " + v.Why
		case "drift":
			status = "DRIFT: " + v.Why
		}
		fmt.Fprintf(&b, "%-28s %-18s %5d %12s %12s %11s %9s  %s\n",
			v.Series.Entry, v.Series.Metric, len(v.Series.Points),
			fmtVal(v.First), fmtVal(v.Last),
			fmtPct(v.SlopePerRun), fmtPct(v.TotalRel), status)
	}
	flagged := t.Flagged()
	if len(flagged) == 0 {
		fmt.Fprintf(&b, "no steps or drift (%d series analyzed)\n", len(t.Verdicts))
	} else {
		steps, drifts := 0, 0
		for _, v := range flagged {
			if v.Kind == "step" {
				steps++
			} else {
				drifts++
			}
		}
		fmt.Fprintf(&b, "%d series flagged (%d step, %d drift)\n", len(flagged), steps, drifts)
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

// fmtPct renders a relative change. Values that are zero up to float
// rounding (a least-squares fit of a constant series is only zero to
// ~1e-16) render as "-", never as a signed -0.00%.
func fmtPct(rel float64) string {
	if math.Abs(rel) < 5e-7 {
		return "-"
	}
	return fmt.Sprintf("%+.2f%%", rel*100)
}
