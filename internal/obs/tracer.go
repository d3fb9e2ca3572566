package obs

import (
	"sort"
	"sync"
)

// Attr is one key/value attribute on a span.
type Attr struct {
	Key   string
	Value string
}

// A is shorthand for constructing an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Span is one timed unit of work on a (PID, TID) track. Time is in
// seconds on whatever clock the emitter uses — the simulator emits
// simulated time — and is converted to microseconds on Chrome export.
// Spans on one track nest by containment, Perfetto-style: a span whose
// [Start, Start+Dur] interval lies inside another's renders as its child,
// which is how collective op → round → phase nesting is expressed.
type Span struct {
	PID   int     // process track (e.g. one strategy's run)
	TID   int     // thread track within the process
	Name  string  // display name
	Start float64 // seconds
	Dur   float64 // seconds
	Attrs []Attr
}

// traceShards spreads concurrent emitters over independent locks.
const traceShards = 16

type traceShard struct {
	mu    sync.Mutex
	spans []Span
}

// Tracer collects spans from concurrent emitters into sharded sinks.
// A nil *Tracer is a valid no-op sink. Create with NewTracer.
type Tracer struct {
	shards [traceShards]traceShard

	mu      sync.Mutex
	procs   map[int]string    // pid -> process name
	threads map[[2]int]string // (pid, tid) -> thread name
	pids    map[string]int    // process name -> pid
	nextPID int
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{
		procs:   map[int]string{},
		threads: map[[2]int]string{},
		pids:    map[string]int{},
		nextPID: 1,
	}
}

// PID returns a stable process track id for a name, registering it on
// first use (ids start at 1 in registration order). On a nil tracer it
// returns 0.
func (t *Tracer) PID(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if pid, ok := t.pids[name]; ok {
		return pid
	}
	pid := t.nextPID
	t.nextPID++
	t.pids[name] = pid
	t.procs[pid] = name
	return pid
}

// SetThreadName names a (pid, tid) track for display; nil-safe.
func (t *Tracer) SetThreadName(pid, tid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[[2]int{pid, tid}] = name
	t.mu.Unlock()
}

// Emit records one complete span; nil-safe and safe for concurrent use.
func (t *Tracer) Emit(s Span) {
	if t == nil {
		return
	}
	sh := &t.shards[(s.PID*31+s.TID)&(traceShards-1)]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// SpanRef is an open span returned by Begin; call End to emit it.
// The zero SpanRef (from a nil tracer) is a valid no-op.
type SpanRef struct {
	t *Tracer
	s Span
}

// Begin opens a span at timestamp ts (seconds); nil-safe.
func (t *Tracer) Begin(pid, tid int, name string, ts float64, attrs ...Attr) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return SpanRef{t: t, s: Span{PID: pid, TID: tid, Name: name, Start: ts, Attrs: attrs}}
}

// Attr appends an attribute to an open span; no-op on the zero ref.
func (r *SpanRef) Attr(key, value string) {
	if r.t == nil {
		return
	}
	r.s.Attrs = append(r.s.Attrs, Attr{Key: key, Value: value})
}

// End closes the span at timestamp ts and emits it; no-op on the zero
// ref. Ends before the start emit a zero-duration span at the start.
func (r SpanRef) End(ts float64) {
	if r.t == nil {
		return
	}
	if ts > r.s.Start {
		r.s.Dur = ts - r.s.Start
	}
	r.t.Emit(r.s)
}

// Spans returns every collected span sorted by (Start, PID, TID, longer
// first) — parents before children at equal timestamps. Nil-safe.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Dur > b.Dur
	})
	return out
}

// processes returns (pid, name) pairs sorted by pid.
func (t *Tracer) processes() []struct {
	pid  int
	name string
} {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]struct {
		pid  int
		name string
	}, 0, len(t.procs))
	for pid, name := range t.procs {
		out = append(out, struct {
			pid  int
			name string
		}{pid, name})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pid < out[j].pid })
	return out
}

// threadNames returns ((pid, tid), name) pairs sorted by pid then tid.
func (t *Tracer) threadNames() []struct {
	pid, tid int
	name     string
} {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]struct {
		pid, tid int
		name     string
	}, 0, len(t.threads))
	for k, name := range t.threads {
		out = append(out, struct {
			pid, tid int
			name     string
		}{k[0], k[1], name})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pid != out[j].pid {
			return out[i].pid < out[j].pid
		}
		return out[i].tid < out[j].tid
	})
	return out
}
