// Package health is the gray-failure detection subsystem: a φ-accrual
// style suspicion detector fed from observed per-entity latencies in
// the simulated clock, and a circuit breaker driven by its verdicts.
//
// Hard faults announce themselves — a crash is a missing heartbeat, a
// transient OST an error return. Gray faults don't: a disk at 10%
// bandwidth still answers, a flaky NIC still delivers most messages.
// The only evidence is statistical, so the detector keeps, per entity,
// an EWMA baseline of the observed signal and an EWMA of its absolute
// deviation, scores each new sample by how many deviations it sits
// above the baseline (the accrual φ), smooths that score, and declares
// the entity suspected when the smoothed score crosses a threshold.
// Hysteresis (a lower clear threshold) keeps flapping components from
// thrashing the planner, and the baseline freezes while a sample is
// anomalous so a long degradation cannot teach the detector that slow
// is the new normal.
//
// Everything runs in simulated time on deterministic inputs: the same
// observation sequence yields the same suspicion verdicts forever.
package health

import (
	"math"
	"sort"
	"strconv"

	"mcio/internal/obs"
)

// The detector's constants.
const (
	// baselineAlpha is the EWMA weight for the baseline mean and
	// deviation: about 10 samples of memory.
	baselineAlpha = 0.1
	// scoreBeta is the EWMA weight for the smoothed suspicion score:
	// suspicion reacts in a few samples, not one.
	scoreBeta = 0.3
	// anomalyGate is the instantaneous φ beyond which a sample is
	// considered anomalous and the baseline freezes.
	anomalyGate = 3.0
	// suspectScore is the smoothed score at or above which an entity
	// becomes suspected.
	suspectScore = 2.0
	// clearScore sets the hysteresis: suspicion clears only when the
	// smoothed score falls to half of suspectScore.
	clearScore = suspectScore * 0.5
	// warmup is how many samples an entity needs before suspicion can
	// fire; the baseline always absorbs warmup samples.
	warmup = 2
)

// maxPhi caps the instantaneous accrual score so absurd samples (a
// target 10^6× its baseline) still produce finite, comparable scores.
const maxPhi = 64.0

type key struct {
	kind string
	id   int
}

type entity struct {
	n         int
	mean      float64
	dev       float64
	score     float64
	suspected bool
	events    int
}

// Detector accrues suspicion per (kind, id) entity — e.g. ("ost", 3)
// or ("node", 7). It is deterministic and not safe for concurrent use;
// the single-goroutine cost loop owns it.
type Detector struct {
	ents        map[key]*entity
	transitions int

	o          *obs.Observer
	scoreGauge map[key]*obs.Gauge
	suspGauge  map[string]*obs.Gauge
	eventCtr   map[key]*obs.Counter
}

// NewDetector builds a detector.
func NewDetector() *Detector {
	return &Detector{
		ents:       map[key]*entity{},
		scoreGauge: map[key]*obs.Gauge{},
		suspGauge:  map[string]*obs.Gauge{},
		eventCtr:   map[key]*obs.Counter{},
	}
}

// SetObserver attaches metrics: health.suspicion{kind,id} gauges,
// health.suspected{kind} entity counts, health.suspect_events{kind,id}
// transition counters.
func (d *Detector) SetObserver(o *obs.Observer) {
	if d == nil {
		return
	}
	d.o = o
	d.scoreGauge = map[key]*obs.Gauge{}
	d.suspGauge = map[string]*obs.Gauge{}
	d.eventCtr = map[key]*obs.Counter{}
}

// Observe feeds one sample for entity (kind, id) and returns whether
// the entity is suspected afterwards. The signal is a normalized
// service ratio — observed latency over nominal, so 1 is healthy and 4
// is "four times slower than it should be" — but any stationary
// positive signal works. Non-finite samples are ignored.
func (d *Detector) Observe(kind string, id int, value float64) bool {
	if d == nil {
		return false
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return d.Suspected(kind, id)
	}
	k := key{kind, id}
	e := d.ents[k]
	if e == nil {
		e = &entity{mean: value}
		d.ents[k] = e
	}

	eps := 0.05*math.Abs(e.mean) + 1e-9
	phi := 0.0
	if value > e.mean {
		phi = (value - e.mean) / (e.dev + eps)
	}
	if phi > maxPhi {
		phi = maxPhi
	}
	// Robust baseline: anomalous samples (φ at or beyond the gate) are
	// scored but not absorbed, so sustained degradation keeps looking
	// degraded instead of becoming the new baseline. Warmup samples
	// always absorb — there is no baseline to defend yet.
	if e.n < warmup || phi < anomalyGate {
		e.mean += baselineAlpha * (value - e.mean)
		e.dev += baselineAlpha * (math.Abs(value-e.mean) - e.dev)
	}
	e.score += scoreBeta * (phi - e.score)
	e.n++

	if e.n > warmup {
		if !e.suspected && e.score >= suspectScore {
			e.suspected = true
			e.events++
			d.transitions++
			if d.o != nil {
				c := d.eventCtr[k]
				if c == nil {
					c = d.o.Counter("health.suspect_events",
						obs.L("kind", kind), obs.L("id", strconv.Itoa(id)))
					d.eventCtr[k] = c
				}
				c.Inc()
			}
		} else if e.suspected && e.score <= clearScore {
			e.suspected = false
		}
	}
	d.export(k, e)
	return e.suspected
}

func (d *Detector) export(k key, e *entity) {
	if d.o == nil {
		return
	}
	g := d.scoreGauge[k]
	if g == nil {
		g = d.o.Gauge("health.suspicion", obs.L("kind", k.kind), obs.L("id", strconv.Itoa(k.id)))
		d.scoreGauge[k] = g
	}
	g.Set(e.score)
	sg := d.suspGauge[k.kind]
	if sg == nil {
		sg = d.o.Gauge("health.suspected", obs.L("kind", k.kind))
		d.suspGauge[k.kind] = sg
	}
	n := 0
	for kk, ee := range d.ents {
		if kk.kind == k.kind && ee.suspected {
			n++
		}
	}
	sg.Set(float64(n))
}

// Suspected reports whether entity (kind, id) is currently suspected.
func (d *Detector) Suspected(kind string, id int) bool {
	if d == nil {
		return false
	}
	e := d.ents[key{kind, id}]
	return e != nil && e.suspected
}

// Score returns the entity's smoothed suspicion score (0 when unseen).
func (d *Detector) Score(kind string, id int) float64 {
	if d == nil {
		return 0
	}
	e := d.ents[key{kind, id}]
	if e == nil {
		return 0
	}
	return e.score
}

// SuspectedIDs returns the currently suspected entity ids of one kind,
// ascending.
func (d *Detector) SuspectedIDs(kind string) []int {
	if d == nil {
		return nil
	}
	var out []int
	for k, e := range d.ents {
		if k.kind == kind && e.suspected {
			out = append(out, k.id)
		}
	}
	sort.Ints(out)
	return out
}

// Transitions returns how many healthy→suspected transitions have
// fired across all entities.
func (d *Detector) Transitions() int {
	if d == nil {
		return 0
	}
	return d.transitions
}
