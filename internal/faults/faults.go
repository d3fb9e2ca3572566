// Package faults is the deterministic fault-injection subsystem of the
// collective-I/O simulator. A Spec describes per-component mean times
// between failures (in simulated seconds); Generate expands it into a
// Plan — a time-sorted schedule of concrete fault events over a machine
// of N nodes and T storage targets. An Injector replays that schedule
// against a simulated clock and answers the queries the cost engine and
// the planners ask while an operation is in flight: is this node dead,
// how slow is this straggler, does this message get dropped, how many
// retries does this OST access eat.
//
// Everything is a pure function of (Spec, node count, target count):
// each (fault kind, entity) pair draws its inter-arrival times from its
// own stats.RNG stream, so adding a fault kind or resizing the machine
// never perturbs the other streams, and a given seed reproduces the
// byte-identical schedule forever.
package faults

import (
	"fmt"
	"math"
	"sort"

	"mcio/internal/stats"
)

// Kind enumerates the fault taxonomy.
type Kind int

const (
	// NodeCrash kills a host: its aggregator role is lost and the work
	// must move (memory-conscious) or stall until reboot (baseline).
	NodeCrash Kind = iota
	// MemCollapse is a mid-operation loss of most of a host's available
	// memory (a co-resident application ballooning); the host survives
	// but can no longer back its aggregation buffers.
	MemCollapse
	// Straggler degrades a host's NIC and DRAM bandwidth by Severity×
	// for Duration seconds.
	Straggler
	// OSTTransient makes a storage target return retryable errors for
	// Duration seconds.
	OSTTransient
	// OSTPermanent degrades a storage target for the rest of the run.
	OSTPermanent
	// MsgDelay adds fixed latency to messages leaving a host for
	// Duration seconds.
	MsgDelay
	// MsgDrop loses one message leaving a host (it must be resent after
	// a timeout).
	MsgDrop
	// MsgBitFlip silently corrupts one shuffle message leaving a host:
	// the bytes arrive, bit-flipped, and only end-to-end checksums can
	// tell. New kinds append after the existing ones so per-(kind,
	// entity) RNG streams — and therefore every previously pinned
	// schedule — are unchanged.
	MsgBitFlip
	// TornWrite silently truncates one object write on a storage
	// target: the request reports success but only a prefix of the
	// bytes lands, as a power-fail mid-write would leave it.
	TornWrite
	// OSTSlowdown is a gray storage failure: the target keeps answering,
	// but its service time is multiplied by a degradation curve (step,
	// linear drip, or intermittent flap — Event.Profile) for Duration
	// seconds. No error is ever returned, so only latency observation
	// can tell.
	OSTSlowdown
	// NICFlaky is a gray network failure: messages leaving the node pay
	// extra latency for Duration seconds and every k-th one is dropped
	// (bursty per-link delay/drop, below the threshold a hard fault
	// detector would fire on).
	NICFlaky
	// MemLeak gradually decays a node's available memory (a co-resident
	// leak): the budget the planner reserved against shrinks linearly to
	// Severity× its size over Duration seconds, feeding
	// memmodel.SetAvail through the fault handler.
	MemLeak

	numKinds int = iota
)

// Profile shapes a gray-failure degradation curve over its window.
type Profile int

const (
	// ProfileStep holds the full severity for the whole window.
	ProfileStep Profile = iota
	// ProfileDrip ramps severity linearly from healthy to full across
	// the window — the slow-death disk.
	ProfileDrip
	// ProfileFlap alternates healthy and fully degraded eighths of the
	// window — the intermittent component hysteresis must not thrash on.
	ProfileFlap

	numProfiles int = iota
)

// String names the profile for reports.
func (p Profile) String() string {
	switch p {
	case ProfileStep:
		return "step"
	case ProfileDrip:
		return "drip"
	case ProfileFlap:
		return "flap"
	default:
		return fmt.Sprintf("profile(%d)", int(p))
	}
}

// String names the kind for metrics labels and reports.
func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "node-crash"
	case MemCollapse:
		return "mem-collapse"
	case Straggler:
		return "straggler"
	case OSTTransient:
		return "ost-transient"
	case OSTPermanent:
		return "ost-permanent"
	case MsgDelay:
		return "msg-delay"
	case MsgDrop:
		return "msg-drop"
	case MsgBitFlip:
		return "msg-bitflip"
	case TornWrite:
		return "torn-write"
	case OSTSlowdown:
		return "ost-slowdown"
	case NICFlaky:
		return "nic-flaky"
	case MemLeak:
		return "mem-leak"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault. Node is set for host-level kinds,
// Target for OST kinds. Duration bounds time-windowed kinds
// (Straggler, OSTTransient, MsgDelay); Severity carries the
// kind-specific magnitude (fraction of memory lost for MemCollapse,
// slowdown factor for Straggler, added seconds for MsgDelay).
type Event struct {
	Kind     Kind
	Time     float64 // simulated seconds since operation start
	Node     int
	Target   int
	Duration float64
	Severity float64
	// Profile shapes gray-failure kinds (OSTSlowdown) over the window;
	// zero (ProfileStep) for every other kind.
	Profile Profile
}

// EntityLabel returns the timeline entity the event acts on: "ost N"
// for storage-target kinds, "node N" otherwise. The format matches
// timeline.Ent so journal overlays line up with utilization lanes.
func (e Event) EntityLabel() string {
	switch e.Kind {
	case OSTTransient, OSTPermanent, TornWrite, OSTSlowdown:
		return fmt.Sprintf("ost %d", e.Target)
	default:
		return fmt.Sprintf("node %d", e.Node)
	}
}

// Describe renders the event for journals and reports: kind plus the
// parameters that shape it.
func (e Event) Describe() string {
	d := e.Kind.String()
	if e.Severity != 0 {
		d += fmt.Sprintf(" sev %.3g", e.Severity)
	}
	if e.Duration > 0 {
		d += fmt.Sprintf(" for %.3gs", e.Duration)
	}
	switch e.Kind {
	case OSTSlowdown, NICFlaky:
		d += " (" + e.Profile.String() + ")"
	}
	return d
}

// Spec declares the fault environment. All MTBF fields are mean time
// between failures per entity in simulated seconds; zero disables that
// kind entirely. Horizon bounds the schedule: no event is generated at
// or beyond it.
type Spec struct {
	Seed    uint64
	Horizon float64

	NodeCrashMTBF    float64
	MemCollapseMTBF  float64
	CollapseFraction float64 // fraction of availability lost, (0,1]

	StragglerMTBF     float64
	StragglerDuration float64
	StragglerFactor   float64 // bandwidth divisor while straggling, > 1

	OSTTransientMTBF     float64
	OSTTransientDuration float64
	OSTPermanentMTBF     float64
	DegradedFactor       float64 // service-time multiplier on a degraded OST, >= 1

	MsgDelayMTBF     float64
	MsgDelayDuration float64
	MsgDelaySeconds  float64 // latency added per message while delayed

	MsgDropMTBF        float64
	DropTimeoutSeconds float64 // detection + resend cost of one dropped message

	// Silent-corruption kinds. Both default to 0 (off) so existing
	// schedules and the fault-free hot path are unchanged; WithCorruption
	// turns them on together.
	MsgBitFlipMTBF float64 // per-node MTBF of one corrupted shuffle message
	TornWriteMTBF  float64 // per-target MTBF of one torn object write

	// Gray-failure kinds. All default to 0 (off) so schedules pinned
	// before they existed are unchanged; WithGray turns them on together.
	OSTSlowdownMTBF     float64 // per-target MTBF of one degradation window
	OSTSlowdownDuration float64 // window length in simulated seconds
	OSTSlowdownFactor   float64 // peak service-time multiplier, > 1

	NICFlakyMTBF      float64 // per-node MTBF of one flaky-link window
	NICFlakyDuration  float64 // window length in simulated seconds
	NICFlakySeconds   float64 // latency added per message while flaky
	NICFlakyDropEvery int     // every k-th in-window message is dropped; 0 = delay only

	MemLeakMTBF     float64 // per-node MTBF of one leak onset
	MemLeakDuration float64 // seconds over which the leak ramps to full size
	MemLeakFraction float64 // fraction of the node budget leaked at full size, (0,1)

	// Recovery pricing knobs consumed by the handlers, kept here so one
	// Spec fully determines a faulted run.
	DetectSeconds float64 // failure-detection latency before a failover
	StallSeconds  float64 // baseline reboot-and-retry stall after a crash
	RetryBackoff  float64 // initial OST retry backoff, doubling per retry
	MaxRetries    int     // retry budget before a transient OST escalates
}

// DefaultSpec returns a fault environment calibrated to an operation
// expected to last about horizon simulated seconds: roughly one or two
// host-level events across a ten-node machine at rate 1, with detection
// and stall costs that are meaningful relative to the operation.
func DefaultSpec(seed uint64, horizon float64) Spec {
	if horizon <= 0 {
		horizon = 1
	}
	return Spec{
		Seed:    seed,
		Horizon: horizon,

		NodeCrashMTBF:    6 * horizon,
		MemCollapseMTBF:  6 * horizon,
		CollapseFraction: 0.9,

		StragglerMTBF:     3 * horizon,
		StragglerDuration: horizon / 4,
		StragglerFactor:   4,

		OSTTransientMTBF:     3 * horizon,
		OSTTransientDuration: horizon / 8,
		OSTPermanentMTBF:     30 * horizon,
		DegradedFactor:       1.5,

		MsgDelayMTBF:     3 * horizon,
		MsgDelayDuration: horizon / 8,
		MsgDelaySeconds:  horizon / 500,

		MsgDropMTBF:        3 * horizon,
		DropTimeoutSeconds: horizon / 200,

		DetectSeconds: horizon / 100,
		StallSeconds:  horizon / 4,
		RetryBackoff:  horizon / 2000,
		MaxRetries:    5,
	}
}

// WithRate scales every failure rate by rate: MTBFs are divided by it,
// so rate 2 doubles the expected event count and rate 0 disables every
// kind (the schedule is empty and the fault path fully inert).
func (s Spec) WithRate(rate float64) Spec {
	if rate <= 0 {
		s.NodeCrashMTBF = 0
		s.MemCollapseMTBF = 0
		s.StragglerMTBF = 0
		s.OSTTransientMTBF = 0
		s.OSTPermanentMTBF = 0
		s.MsgDelayMTBF = 0
		s.MsgDropMTBF = 0
		s.MsgBitFlipMTBF = 0
		s.TornWriteMTBF = 0
		s.OSTSlowdownMTBF = 0
		s.NICFlakyMTBF = 0
		s.MemLeakMTBF = 0
		return s
	}
	s.NodeCrashMTBF /= rate
	s.MemCollapseMTBF /= rate
	s.StragglerMTBF /= rate
	s.OSTTransientMTBF /= rate
	s.OSTPermanentMTBF /= rate
	s.MsgDelayMTBF /= rate
	s.MsgDropMTBF /= rate
	s.MsgBitFlipMTBF /= rate
	s.TornWriteMTBF /= rate
	s.OSTSlowdownMTBF /= rate
	s.NICFlakyMTBF /= rate
	s.MemLeakMTBF /= rate
	return s
}

// WithGray enables the gray-failure kinds — slow-but-answering OSTs,
// flaky NICs, leaking nodes — at the given rate multiplier (1 ≈ one
// window per entity across the horizon). Rate <= 0 leaves them off.
// DefaultSpec keeps all three at 0 so schedules pinned before gray
// faults existed are unchanged.
func (s Spec) WithGray(rate float64) Spec {
	if rate <= 0 {
		s.OSTSlowdownMTBF = 0
		s.NICFlakyMTBF = 0
		s.MemLeakMTBF = 0
		return s
	}
	s.OSTSlowdownMTBF = 2 * s.Horizon / rate
	s.OSTSlowdownDuration = s.Horizon / 3
	s.OSTSlowdownFactor = 6
	s.NICFlakyMTBF = 2 * s.Horizon / rate
	s.NICFlakyDuration = s.Horizon / 4
	s.NICFlakySeconds = s.Horizon / 250
	s.NICFlakyDropEvery = 64
	s.MemLeakMTBF = 4 * s.Horizon / rate
	s.MemLeakDuration = s.Horizon / 2
	s.MemLeakFraction = 0.6
	return s
}

// WithCorruption enables the silent-corruption kinds at the given rate
// multiplier (1 ≈ a couple of corruption events per entity across the
// horizon). Rate <= 0 leaves them off. DefaultSpec keeps both at 0 so
// schedules pinned before corruption faults existed are unchanged.
func (s Spec) WithCorruption(rate float64) Spec {
	if rate <= 0 {
		s.MsgBitFlipMTBF = 0
		s.TornWriteMTBF = 0
		return s
	}
	s.MsgBitFlipMTBF = 2 * s.Horizon / rate
	s.TornWriteMTBF = 2 * s.Horizon / rate
	return s
}

// Validate rejects specs that cannot be scheduled deterministically.
func (s Spec) Validate() error {
	if s.Horizon < 0 || math.IsNaN(s.Horizon) || math.IsInf(s.Horizon, 0) {
		return fmt.Errorf("faults: horizon %v must be finite and non-negative", s.Horizon)
	}
	for _, m := range []struct {
		name string
		v    float64
	}{
		{"NodeCrashMTBF", s.NodeCrashMTBF},
		{"MemCollapseMTBF", s.MemCollapseMTBF},
		{"StragglerMTBF", s.StragglerMTBF},
		{"OSTTransientMTBF", s.OSTTransientMTBF},
		{"OSTPermanentMTBF", s.OSTPermanentMTBF},
		{"MsgDelayMTBF", s.MsgDelayMTBF},
		{"MsgDropMTBF", s.MsgDropMTBF},
		{"MsgBitFlipMTBF", s.MsgBitFlipMTBF},
		{"TornWriteMTBF", s.TornWriteMTBF},
		{"OSTSlowdownMTBF", s.OSTSlowdownMTBF},
		{"NICFlakyMTBF", s.NICFlakyMTBF},
		{"MemLeakMTBF", s.MemLeakMTBF},
	} {
		if m.v < 0 || math.IsNaN(m.v) {
			return fmt.Errorf("faults: %s %v must be >= 0", m.name, m.v)
		}
	}
	if s.MemCollapseMTBF > 0 && (s.CollapseFraction <= 0 || s.CollapseFraction > 1) {
		return fmt.Errorf("faults: CollapseFraction %v must be in (0,1]", s.CollapseFraction)
	}
	if s.StragglerMTBF > 0 && s.StragglerFactor <= 1 {
		return fmt.Errorf("faults: StragglerFactor %v must be > 1", s.StragglerFactor)
	}
	if (s.OSTTransientMTBF > 0 || s.OSTPermanentMTBF > 0) && s.DegradedFactor < 1 {
		return fmt.Errorf("faults: DegradedFactor %v must be >= 1", s.DegradedFactor)
	}
	if s.OSTTransientMTBF > 0 && (s.RetryBackoff <= 0 || s.MaxRetries < 1) {
		return fmt.Errorf("faults: transient OST faults need RetryBackoff > 0 and MaxRetries >= 1")
	}
	if s.OSTSlowdownMTBF > 0 && s.OSTSlowdownFactor <= 1 {
		return fmt.Errorf("faults: OSTSlowdownFactor %v must be > 1", s.OSTSlowdownFactor)
	}
	if s.NICFlakyMTBF > 0 && s.NICFlakyDropEvery < 0 {
		return fmt.Errorf("faults: NICFlakyDropEvery %v must be >= 0", s.NICFlakyDropEvery)
	}
	if s.MemLeakMTBF > 0 && (s.MemLeakFraction <= 0 || s.MemLeakFraction >= 1) {
		return fmt.Errorf("faults: MemLeakFraction %v must be in (0,1)", s.MemLeakFraction)
	}
	return nil
}

// Plan is a generated fault schedule: events sorted by time (ties
// broken by kind, then node, then target, so iteration order is total
// and reproducible).
type Plan struct {
	Spec   Spec
	Events []Event
}

// Generate expands the spec into a schedule for a machine of nodes
// hosts and targets storage targets. Each (kind, entity) pair owns an
// independent RNG stream seeded from Spec.Seed, so schedules are stable
// under machine resizing and kind addition.
func (s Spec) Generate(nodes, targets int) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if nodes < 0 || targets < 0 {
		return nil, fmt.Errorf("faults: negative machine size (%d nodes, %d targets)", nodes, targets)
	}
	p := &Plan{Spec: s}
	addNodeKind := func(kind Kind, mtbf float64, mk func(r *stats.RNG, node int, t float64) Event) {
		if mtbf <= 0 {
			return
		}
		for node := 0; node < nodes; node++ {
			r := streamRNG(s.Seed, kind, node)
			for t := r.Exponential(1 / mtbf); t < s.Horizon; t += r.Exponential(1 / mtbf) {
				p.Events = append(p.Events, mk(r, node, t))
			}
		}
	}
	addTargetKind := func(kind Kind, mtbf float64, mk func(r *stats.RNG, target int, t float64) Event) {
		if mtbf <= 0 {
			return
		}
		for target := 0; target < targets; target++ {
			r := streamRNG(s.Seed, kind, target)
			for t := r.Exponential(1 / mtbf); t < s.Horizon; t += r.Exponential(1 / mtbf) {
				p.Events = append(p.Events, mk(r, target, t))
			}
		}
	}

	addNodeKind(NodeCrash, s.NodeCrashMTBF, func(_ *stats.RNG, node int, t float64) Event {
		return Event{Kind: NodeCrash, Time: t, Node: node, Target: -1}
	})
	addNodeKind(MemCollapse, s.MemCollapseMTBF, func(_ *stats.RNG, node int, t float64) Event {
		return Event{Kind: MemCollapse, Time: t, Node: node, Target: -1, Severity: s.CollapseFraction}
	})
	addNodeKind(Straggler, s.StragglerMTBF, func(_ *stats.RNG, node int, t float64) Event {
		return Event{Kind: Straggler, Time: t, Node: node, Target: -1,
			Duration: s.StragglerDuration, Severity: s.StragglerFactor}
	})
	addNodeKind(MsgDelay, s.MsgDelayMTBF, func(_ *stats.RNG, node int, t float64) Event {
		return Event{Kind: MsgDelay, Time: t, Node: node, Target: -1,
			Duration: s.MsgDelayDuration, Severity: s.MsgDelaySeconds}
	})
	addNodeKind(MsgDrop, s.MsgDropMTBF, func(_ *stats.RNG, node int, t float64) Event {
		return Event{Kind: MsgDrop, Time: t, Node: node, Target: -1, Severity: s.DropTimeoutSeconds}
	})
	addNodeKind(MsgBitFlip, s.MsgBitFlipMTBF, func(_ *stats.RNG, node int, t float64) Event {
		return Event{Kind: MsgBitFlip, Time: t, Node: node, Target: -1}
	})
	addTargetKind(TornWrite, s.TornWriteMTBF, func(_ *stats.RNG, target int, t float64) Event {
		return Event{Kind: TornWrite, Time: t, Node: -1, Target: target}
	})
	addTargetKind(OSTTransient, s.OSTTransientMTBF, func(_ *stats.RNG, target int, t float64) Event {
		return Event{Kind: OSTTransient, Time: t, Node: -1, Target: target, Duration: s.OSTTransientDuration}
	})
	addTargetKind(OSTPermanent, s.OSTPermanentMTBF, func(_ *stats.RNG, target int, t float64) Event {
		return Event{Kind: OSTPermanent, Time: t, Node: -1, Target: target, Severity: s.DegradedFactor}
	})
	// Gray kinds. Each event draws its degradation profile from the same
	// per-(kind, entity) stream as its arrival time, so the curve shape
	// is as schedule-pinned as the window itself.
	addTargetKind(OSTSlowdown, s.OSTSlowdownMTBF, func(r *stats.RNG, target int, t float64) Event {
		return Event{Kind: OSTSlowdown, Time: t, Node: -1, Target: target,
			Duration: s.OSTSlowdownDuration, Severity: s.OSTSlowdownFactor,
			Profile: Profile(r.Intn(numProfiles))}
	})
	addNodeKind(NICFlaky, s.NICFlakyMTBF, func(_ *stats.RNG, node int, t float64) Event {
		return Event{Kind: NICFlaky, Time: t, Node: node, Target: -1,
			Duration: s.NICFlakyDuration, Severity: s.NICFlakySeconds}
	})
	addNodeKind(MemLeak, s.MemLeakMTBF, func(_ *stats.RNG, node int, t float64) Event {
		return Event{Kind: MemLeak, Time: t, Node: node, Target: -1,
			Duration: s.MemLeakDuration, Severity: s.MemLeakFraction}
	})

	sort.Slice(p.Events, func(i, j int) bool {
		a, b := p.Events[i], p.Events[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Target < b.Target
	})
	return p, nil
}

// streamRNG derives the independent generator for one (kind, entity)
// pair. The mixing constants are the SplitMix64 increments, so distinct
// pairs land in well-separated seed space.
func streamRNG(seed uint64, kind Kind, entity int) *stats.RNG {
	return stats.NewRNG(seed ^
		(uint64(kind)+1)*0x9e3779b97f4a7c15 ^
		(uint64(entity)+1)*0xbf58476d1ce4e5b9)
}
