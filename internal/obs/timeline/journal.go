package timeline

import "sort"

// Event kinds, one constant per structured thing the stack journals.
// Kinds are stable strings (they appear in CSV exports and reports);
// add, never rename.
const (
	// EvFault is a fault onset from the injector schedule (the event's
	// scheduled time, not the round boundary that discovered it).
	EvFault = "fault"
	// EvSuspect / EvClear are suspicion-detector threshold crossings.
	EvSuspect = "suspect"
	EvClear   = "clear"
	// Breaker state changes on a storage target.
	EvBreakerOpen  = "breaker-open"
	EvBreakerProbe = "breaker-probe"
	EvBreakerClose = "breaker-close"
	// EvFailover is a reactive reassignment after a host fault;
	// EvProactive a health-driven move before one; EvStall a
	// stall-and-retry recovery charging dead time.
	EvFailover  = "failover"
	EvProactive = "proactive-failover"
	EvStall     = "stall"
	// EvRung is a degradation-controller rung change.
	EvRung = "degrade-rung"
	// EvHedge is a hedged re-request; EvRepair a detected corruption
	// being re-requested or re-issued.
	EvHedge  = "hedge"
	EvRepair = "repair"
	// EvPhase marks a run-phase boundary (metadata / data / recovery
	// rounds), emitted by the engine; the saturation analyzer segments
	// on these.
	EvPhase = "phase"
)

// Event is one journal entry. T is simulated seconds; T < 0 marks an
// unstamped event (recorded from a layer without a simulated clock,
// ordered by sequence only).
type Event struct {
	T      float64
	Seq    int
	Kind   string
	Entity string // Ent()-formatted, matching the series labels
	Detail string
}

// Journal is an append-only structured event log. Like the Recorder it
// is single-goroutine and nil-safe.
type Journal struct {
	events []Event
}

// Record appends one timestamped event.
func (j *Journal) Record(t float64, kind, entity, detail string) {
	if j == nil {
		return
	}
	j.events = append(j.events, Event{T: t, Seq: len(j.events), Kind: kind, Entity: entity, Detail: detail})
}

// RecordSeq appends one unstamped event (T = -1): layers with no
// simulated clock (the byte-level integrity path) still journal, in
// sequence order.
func (j *Journal) RecordSeq(kind, entity, detail string) {
	if j == nil {
		return
	}
	j.events = append(j.events, Event{T: -1, Seq: len(j.events), Kind: kind, Entity: entity, Detail: detail})
}

// Events returns the journal sorted by (time, sequence), unstamped
// events last in sequence order. The sort is stable and the result a
// copy.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	out := append([]Event(nil), j.events...)
	sort.SliceStable(out, func(a, b int) bool {
		ta, tb := out[a].T, out[b].T
		ua, ub := ta < 0, tb < 0
		if ua != ub {
			return ub // stamped before unstamped
		}
		if !ua && ta != tb {
			return ta < tb
		}
		return out[a].Seq < out[b].Seq
	})
	return out
}

// Lag is the detection-lag decomposition for one entity: when its
// first fault set on, when suspicion first crossed, and when the stack
// first reacted (breaker open, proactive or reactive failover). A
// stage that never happened is -1.
type Lag struct {
	Entity  string
	Onset   float64
	Suspect float64
	React   float64
}

// OnsetToSuspect returns the onset→suspicion lag, -1 if unmeasurable.
func (l Lag) OnsetToSuspect() float64 {
	if l.Onset < 0 || l.Suspect < 0 {
		return -1
	}
	return l.Suspect - l.Onset
}

// OnsetToReact returns the onset→reaction lag, -1 if unmeasurable.
func (l Lag) OnsetToReact() float64 {
	if l.Onset < 0 || l.React < 0 {
		return -1
	}
	return l.React - l.Onset
}

// DetectionLags computes, per entity with at least one fault onset,
// the first onset, the first suspicion at or after it, and the first
// reaction at or after it. Entities come out in natural order.
func DetectionLags(events []Event) []Lag {
	byEnt := map[string]*Lag{}
	var order []string
	get := func(ent string) *Lag {
		l := byEnt[ent]
		if l == nil {
			l = &Lag{Entity: ent, Onset: -1, Suspect: -1, React: -1}
			byEnt[ent] = l
			order = append(order, ent)
		}
		return l
	}
	for _, ev := range events {
		if ev.T < 0 || ev.Entity == "" {
			continue
		}
		switch ev.Kind {
		case EvFault:
			if l := get(ev.Entity); l.Onset < 0 {
				l.Onset = ev.T
			}
		case EvSuspect:
			l := get(ev.Entity)
			if l.Onset >= 0 && l.Suspect < 0 && ev.T >= l.Onset {
				l.Suspect = ev.T
			}
		case EvBreakerOpen, EvProactive, EvFailover:
			l := get(ev.Entity)
			if l.Onset >= 0 && l.React < 0 && ev.T >= l.Onset {
				l.React = ev.T
			}
		}
	}
	var out []Lag
	for _, ent := range order {
		if l := byEnt[ent]; l.Onset >= 0 {
			out = append(out, *l)
		}
	}
	sort.Slice(out, func(i, j int) bool { return entityLess(out[i].Entity, out[j].Entity) })
	return out
}
