package timeline

import (
	"fmt"
	"sort"
	"strings"
)

// The saturation analyzer's thresholds.
const (
	// satUtil is the utilization fraction at which a resource counts as
	// saturated.
	satUtil = 0.9
	// sustainBins is how many consecutive bins must cross satUtil
	// before the crossing counts — a single hot bin is noise, a
	// sustained plateau is a bottleneck.
	sustainBins = 2
)

// Resource is the saturation verdict for one entity's busy series.
type Resource struct {
	Entity string
	Peak   float64 // peak per-bin utilization
	Mean   float64 // mean utilization over the active window
	// KneeT is when utilization ramps hardest toward its peak (the
	// knee of the curve): the start of the bin with the largest
	// smoothed utilization increase. -1 when the series never ramps
	// (flat or empty).
	KneeT float64
	// SatT is the first sustained crossing of satUtil; -1 when the
	// resource never saturates.
	SatT float64
}

// Phase is one journal-delimited segment of the run with its
// bottleneck verdict.
type Phase struct {
	Name       string
	Start, End float64
	// First names the first resource to saturate inside the phase;
	// when none does, the resource with the highest mean utilization
	// (Saturated false).
	First     string
	FirstT    float64 // saturation time, or -1 when merely busiest
	FirstUtil float64 // the deciding utilization (satUtil crossing or mean)
	Saturated bool
}

// SatReport is the full saturation analysis of one recorded run.
type SatReport struct {
	Tick      float64
	Span      float64
	Resources []Resource
	Phases    []Phase
}

// Analyze runs the saturation analyzer over the recorder's busy
// series, segmenting phases on the journal's EvPhase events. The
// result is a pure function of the recorder's contents.
func Analyze(rec *Recorder) *SatReport {
	rep := &SatReport{Tick: rec.Tick(), Span: rec.Span()}
	if rec == nil {
		return rep
	}
	var busies []SeriesView
	for _, v := range rec.Snapshot() {
		if v.Kind == Busy && v.Metric == "busy" {
			busies = append(busies, v)
		}
	}
	for _, v := range busies {
		rep.Resources = append(rep.Resources, analyzeResource(v))
	}
	rep.Phases = analyzePhases(busies, rec.J().Events(), rec.Span())
	return rep
}

func analyzeResource(v SeriesView) Resource {
	r := Resource{Entity: v.Entity, Peak: v.Max(), Mean: v.Mean(), KneeT: -1, SatT: -1}
	if sb := sustainedCross(v, 0, len(v.Values)); sb >= 0 {
		r.SatT = float64(sb) * v.Tick
	}
	// Knee: the largest bin-to-bin increase of the 3-bin-smoothed
	// utilization. A flat series (max rise under 5% of peak) has none.
	sm := smooth3(v.Values)
	best, bestAt := 0.0, -1
	for i := 1; i < len(sm); i++ {
		if d := sm[i] - sm[i-1]; d > best {
			best, bestAt = d, i
		}
	}
	if bestAt >= 0 && best > 0.05*r.Peak {
		r.KneeT = float64(bestAt) * v.Tick
	}
	return r
}

// sustainedCross returns the first bin in [lo, hi) where v stays at or
// above satUtil for sustainBins consecutive bins (clipped to hi), or
// -1.
func sustainedCross(v SeriesView, lo, hi int) int {
	if hi > len(v.Values) {
		hi = len(v.Values)
	}
	run := 0
	for i := lo; i < hi; i++ {
		if v.Values[i] >= satUtil {
			run++
			if run == sustainBins || i == hi-1 {
				return i - run + 1
			}
		} else {
			run = 0
		}
	}
	return -1
}

func smooth3(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		sum, n := xs[i], 1.0
		if i > 0 {
			sum, n = sum+xs[i-1], n+1
		}
		if i+1 < len(xs) {
			sum, n = sum+xs[i+1], n+1
		}
		out[i] = sum / n
	}
	return out
}

// analyzePhases segments [0, span) on the journal's phase events and
// names the first-saturating (or, failing that, busiest) resource in
// each segment. Adjacent segments with the same phase name merge.
func analyzePhases(busies []SeriesView, events []Event, span float64) []Phase {
	type seg struct {
		name  string
		start float64
	}
	var segs []seg
	for _, ev := range events {
		if ev.Kind != EvPhase || ev.T < 0 {
			continue
		}
		if n := len(segs); n > 0 && segs[n-1].name == ev.Detail {
			continue
		}
		segs = append(segs, seg{name: ev.Detail, start: ev.T})
	}
	if len(segs) == 0 {
		if span <= 0 {
			return nil
		}
		segs = []seg{{name: "run", start: 0}}
	}
	var out []Phase
	for i, sg := range segs {
		end := span
		if i+1 < len(segs) {
			end = segs[i+1].start
		}
		if end <= sg.start {
			continue
		}
		p := Phase{Name: sg.name, Start: sg.start, End: end, FirstT: -1}
		for _, v := range busies {
			lo := int(sg.start / v.Tick)
			hi := int(end/v.Tick) + 1
			if sb := sustainedCross(v, lo, hi); sb >= 0 {
				t := float64(sb) * v.Tick
				if !p.Saturated || t < p.FirstT {
					p.Saturated = true
					p.First, p.FirstT, p.FirstUtil = v.Entity, t, satUtil
				}
			}
		}
		if !p.Saturated {
			for _, v := range busies {
				m := meanWindow(v, sg.start, end)
				if m > p.FirstUtil {
					p.First, p.FirstUtil = v.Entity, m
				}
			}
		}
		out = append(out, p)
	}
	return out
}

func meanWindow(v SeriesView, start, end float64) float64 {
	lo := int(start / v.Tick)
	hi := int(end/v.Tick) + 1
	if hi > len(v.Values) {
		hi = len(v.Values)
	}
	if hi <= lo {
		return 0
	}
	sum := 0.0
	for i := lo; i < hi; i++ {
		sum += v.Values[i]
	}
	return sum / float64(hi-lo)
}

// Render prints the analysis as the fixed-format text block the
// profile summary and tests consume.
func (s *SatReport) Render() string {
	var b strings.Builder
	res := append([]Resource(nil), s.Resources...)
	sort.Slice(res, func(i, j int) bool {
		if res[i].Peak != res[j].Peak {
			return res[i].Peak > res[j].Peak
		}
		return entityLess(res[i].Entity, res[j].Entity)
	})
	fmt.Fprintf(&b, "saturation (>= %.0f%% for %d bins, tick %.3gs):\n",
		satUtil*100, sustainBins, s.Tick)
	for _, r := range res {
		line := fmt.Sprintf("  %-10s peak %3.0f%% mean %3.0f%%", r.Entity, r.Peak*100, r.Mean*100)
		if r.SatT >= 0 {
			line += fmt.Sprintf("  saturated at %.4gs", r.SatT)
		}
		if r.KneeT >= 0 {
			line += fmt.Sprintf("  knee at %.4gs", r.KneeT)
		}
		b.WriteString(line + "\n")
	}
	for _, p := range s.Phases {
		verdict := fmt.Sprintf("busiest %s (mean %.0f%%)", p.First, p.FirstUtil*100)
		if p.Saturated {
			verdict = fmt.Sprintf("first saturated %s at %.4gs", p.First, p.FirstT)
		}
		if p.First == "" {
			verdict = "idle"
		}
		fmt.Fprintf(&b, "  phase %-9s [%.4gs, %.4gs): %s\n", p.Name, p.Start, p.End, verdict)
	}
	return b.String()
}
