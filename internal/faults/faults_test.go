package faults

import (
	"reflect"
	"testing"

	"mcio/internal/obs"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := DefaultSpec(42, 2.0)
	a, err := spec.Generate(10, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate(10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatalf("same spec produced different schedules:\n%v\n%v", a.Events, b.Events)
	}
	if len(a.Events) == 0 {
		t.Fatal("default spec over 10 nodes / 16 targets scheduled no events")
	}
	diff, err := DefaultSpec(43, 2.0).Generate(10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, diff.Events) {
		t.Fatal("different seeds produced the identical schedule")
	}
}

func TestGenerateSortedAndBounded(t *testing.T) {
	spec := DefaultSpec(7, 3.0)
	p, err := spec.Generate(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range p.Events {
		if e.Time < 0 || e.Time >= spec.Horizon {
			t.Fatalf("event %d at %v outside [0, %v)", i, e.Time, spec.Horizon)
		}
		if i > 0 && p.Events[i-1].Time > e.Time {
			t.Fatalf("events not time-sorted at %d", i)
		}
		switch e.Kind {
		case OSTTransient, OSTPermanent:
			if e.Target < 0 || e.Target >= 8 {
				t.Fatalf("OST event with target %d", e.Target)
			}
		default:
			if e.Node < 0 || e.Node >= 8 {
				t.Fatalf("node event with node %d", e.Node)
			}
		}
	}
}

func TestStreamsIndependentOfMachineSize(t *testing.T) {
	// Growing the machine must not change the schedule of the existing
	// entities: per-(kind, entity) streams are independent.
	spec := DefaultSpec(11, 2.0)
	small, err := spec.Generate(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	big, err := spec.Generate(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	keep := func(p *Plan) []Event {
		var out []Event
		for _, e := range p.Events {
			if e.Node < 4 && e.Target < 4 {
				out = append(out, e)
			}
		}
		return out
	}
	if !reflect.DeepEqual(keep(small), keep(big)) {
		t.Fatal("resizing the machine perturbed existing entity streams")
	}
}

func TestWithRateZeroIsEmpty(t *testing.T) {
	p, err := DefaultSpec(42, 2.0).WithRate(0).Generate(10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 0 {
		t.Fatalf("rate 0 scheduled %d events", len(p.Events))
	}
	if !NewInjector(p).Empty() {
		t.Fatal("injector over empty plan is not Empty")
	}
	if !NewInjector(nil).Empty() {
		t.Fatal("injector over nil plan is not Empty")
	}
}

func TestWithRateScalesEventCount(t *testing.T) {
	base := DefaultSpec(42, 4.0)
	lo, _ := base.Generate(16, 16)
	hi, _ := base.WithRate(4).Generate(16, 16)
	if len(hi.Events) <= len(lo.Events) {
		t.Fatalf("rate 4 gave %d events, rate 1 gave %d", len(hi.Events), len(lo.Events))
	}
}

func TestInjectorAdvanceAndQueries(t *testing.T) {
	plan := &Plan{
		Spec: Spec{RetryBackoff: 0.01, MaxRetries: 3},
		Events: []Event{
			{Kind: NodeCrash, Time: 0.5, Node: 2, Target: -1},
			{Kind: Straggler, Time: 1.0, Node: 1, Target: -1, Duration: 1.0, Severity: 4},
			{Kind: MsgDelay, Time: 1.0, Node: 3, Target: -1, Duration: 0.5, Severity: 0.02},
			{Kind: MsgDrop, Time: 1.2, Node: 3, Target: -1},
			{Kind: OSTTransient, Time: 1.5, Node: -1, Target: 0, Duration: 0.1},
		},
	}
	in := NewInjector(plan)
	in.SetObserver(obs.New())

	if evs := in.Advance(0.4); len(evs) != 0 {
		t.Fatalf("events before their time: %v", evs)
	}
	evs := in.Advance(1.1)
	if len(evs) != 3 {
		t.Fatalf("expected 3 events by t=1.1, got %v", evs)
	}
	if !in.dead[2] || in.dead[1] {
		t.Fatal("crash state wrong")
	}
	if got := in.NodeSlowdown(1, 1.1); got != 4 {
		t.Fatalf("straggler slowdown = %v, want 4", got)
	}
	if got := in.NodeSlowdown(1, 2.5); got != 1 {
		t.Fatalf("slowdown after window = %v, want 1", got)
	}
	if got := in.MsgDelaySeconds(3, 1.1); got != 0.02 {
		t.Fatalf("msg delay = %v, want 0.02", got)
	}
	if in.TakeDrop(3) {
		t.Fatal("drop fired before its event")
	}
	in.Advance(1.6)
	if !in.TakeDrop(3) || in.TakeDrop(3) {
		t.Fatal("each MsgDrop event must drop exactly one message")
	}

	// Inside the transient window the ladder 0.01+0.02 clears the 0.1s
	// window end (1.6 -> 1.55 boundary already past? window end = 1.6):
	retries, backoff, degraded := in.OSTPenalty(0, 1.55)
	if retries == 0 || backoff <= 0 {
		t.Fatalf("transient window priced no retries (r=%d b=%v)", retries, backoff)
	}
	if degraded {
		t.Fatal("window clearable inside retry budget must not degrade the target")
	}
	if r2, b2, _ := in.OSTPenalty(0, 1.7); r2 != 0 || b2 != 0 {
		t.Fatalf("post-window access still priced retries (r=%d b=%v)", r2, b2)
	}

	if got := in.Counts()["node-crash"]; got != 1 {
		t.Fatalf("crash count = %d, want 1", got)
	}
}

func TestInjectorEscalatesExhaustedWindow(t *testing.T) {
	plan := &Plan{
		Spec: Spec{RetryBackoff: 0.001, MaxRetries: 2},
		Events: []Event{
			{Kind: OSTTransient, Time: 0.1, Node: -1, Target: 5, Duration: 10},
		},
	}
	in := NewInjector(plan)
	in.Advance(0.2)
	retries, _, degraded := in.OSTPenalty(5, 0.2)
	if retries != 2 || !degraded {
		t.Fatalf("long window: retries=%d degraded=%v, want 2/true", retries, degraded)
	}
	if in.Escalations() != 1 {
		t.Fatalf("escalations = %d, want 1", in.Escalations())
	}
	// Once degraded, stays degraded.
	if _, _, d := in.OSTPenalty(5, 20); !d {
		t.Fatal("degradation did not persist")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Horizon: -1},
		{Horizon: 1, NodeCrashMTBF: -2},
		{Horizon: 1, MemCollapseMTBF: 1, CollapseFraction: 1.5},
		{Horizon: 1, StragglerMTBF: 1, StragglerFactor: 0.5},
		{Horizon: 1, OSTTransientMTBF: 1, DegradedFactor: 1, RetryBackoff: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d validated but should not: %+v", i, s)
		}
	}
	if err := DefaultSpec(1, 1).Validate(); err != nil {
		t.Errorf("default spec rejected: %v", err)
	}
}

// TestPendingQueriesAreStateless pins the contract the analytical fast
// path leans on: pendingDrops, pendingFlips and nicDropActive report
// whether the matching Take query would be stateful, without consuming
// or mutating anything themselves — so a healthy node's messages can be
// bundled without ever touching the injector.
func TestPendingQueriesAreStateless(t *testing.T) {
	plan := &Plan{
		Spec: Spec{NICFlakyDropEvery: 2},
		Events: []Event{
			{Kind: MsgDrop, Time: 1.0, Node: 1, Target: -1},
			{Kind: MsgDrop, Time: 1.1, Node: 1, Target: -1},
			{Kind: MsgBitFlip, Time: 1.0, Node: 2, Target: -1},
			{Kind: NICFlaky, Time: 2.0, Node: 3, Target: -1, Duration: 1.0, Severity: 0.01},
		},
	}
	in := NewInjector(plan)

	if in.pendingDrops(1) != 0 || in.pendingFlips(2) != 0 || in.nicDropActive(3, 0.5) {
		t.Fatal("pending state before any event was applied")
	}
	in.Advance(1.5)
	if got := in.pendingDrops(1); got != 2 {
		t.Fatalf("pendingDrops = %d, want 2", got)
	}
	// Queries are pure: asking repeatedly must not consume.
	if in.pendingDrops(1) != 2 || in.pendingFlips(2) != 1 {
		t.Fatal("pending queries consumed state")
	}
	if !in.TakeDrop(1) {
		t.Fatal("TakeDrop with pending drops returned false")
	}
	if got := in.pendingDrops(1); got != 1 {
		t.Fatalf("after one TakeDrop, pendingDrops = %d, want 1", got)
	}
	if !in.TakeMsgFlip(2) || in.pendingFlips(2) != 0 {
		t.Fatal("TakeMsgFlip did not consume exactly one pending flip")
	}
	// Other nodes stay clean throughout.
	if in.pendingDrops(2) != 0 || in.pendingFlips(1) != 0 {
		t.Fatal("pending state leaked across nodes")
	}

	// nicDropActive brackets the flaky window: false before, true inside
	// (with a positive drop cadence), false after — and checking it never
	// advances the in-window message counter, so the first in-window
	// TakeNICDrop sequence is unperturbed.
	in.Advance(2.5)
	if in.nicDropActive(3, 1.9) {
		t.Fatal("active before window start")
	}
	for i := 0; i < 10; i++ {
		if !in.nicDropActive(3, 2.5) {
			t.Fatal("inactive inside window")
		}
	}
	if in.nicDropActive(3, 3.1) {
		t.Fatal("active after window end")
	}
	// DropEvery = 2: first in-window message passes, second drops — the
	// ten nicDropActive probes above must not have shifted the phase.
	if in.TakeNICDrop(3, 2.5) {
		t.Fatal("first in-window message dropped; cadence phase was perturbed")
	}
	if !in.TakeNICDrop(3, 2.5) {
		t.Fatal("second in-window message not dropped")
	}

	// A cadence of zero means delay-only windows: never drop-stateful.
	delayOnly := NewInjector(&Plan{Events: []Event{
		{Kind: NICFlaky, Time: 0, Node: 0, Target: -1, Duration: 1, Severity: 0.01},
	}})
	delayOnly.Advance(0.5)
	if delayOnly.nicDropActive(0, 0.5) {
		t.Fatal("delay-only flaky window reported drop-stateful")
	}
}

// TestStorageHotBracketsNoOps pins the storage side of the hot-mask
// contract: wherever StorageHot is false, OSTPenalty charges nothing
// and TakeTornWrite returns false, and neither changes any state — so
// the pricing loop may skip them for a cold target. A transient window
// is hot while open, a permanent failure from its scheduled time on
// (before the boundary that applies it), a torn write while pending; a
// target no event names, past the injector's tables, is never hot.
func TestStorageHotBracketsNoOps(t *testing.T) {
	in := NewInjector(&Plan{
		Spec: Spec{RetryBackoff: 0.01, MaxRetries: 8},
		Events: []Event{
			{Kind: OSTTransient, Time: 1, Node: -1, Target: 2, Duration: 0.5},
			{Kind: TornWrite, Time: 1, Node: -1, Target: 5},
			{Kind: OSTSlowdown, Time: 1, Node: -1, Target: 6, Duration: 5, Severity: 3},
			{Kind: OSTPermanent, Time: 3, Node: -1, Target: 4},
		},
	})
	hot := func(now float64) []int {
		var out []int
		for tg := 0; tg < 100; tg++ {
			if in.StorageHot(tg, now) {
				out = append(out, tg)
			}
		}
		return out
	}
	// cold checks the no-op half of the contract on every cold target.
	cold := func(now float64) {
		t.Helper()
		want := hot(now)
		for tg := 0; tg < 100; tg++ {
			if in.StorageHot(tg, now) {
				continue
			}
			if r, b, d := in.OSTPenalty(tg, now); r != 0 || b != 0 || d {
				t.Fatalf("cold target %d at %v: OSTPenalty = %d, %v, %v", tg, now, r, b, d)
			}
			if in.TakeTornWrite(tg) {
				t.Fatalf("cold target %d at %v tore a write", tg, now)
			}
		}
		if got := hot(now); !reflect.DeepEqual(got, want) || in.Escalations() != 0 {
			t.Fatalf("cold queries at %v changed state: hot %v -> %v, escalations %d", now, want, got, in.Escalations())
		}
	}
	for _, step := range []struct {
		now  float64
		want []int
	}{
		{0.5, nil},
		{1.2, []int{2, 5}},
		{2, []int{5}},
		{3, []int{4, 5}}, // the permanent failure is due before Advance applies it
	} {
		if step.now < 3 {
			in.Advance(step.now)
		}
		if got := hot(step.now); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("hot targets at %v = %v, want %v", step.now, got, step.want)
		}
		cold(step.now)
	}
	if !in.TakeTornWrite(5) || in.StorageHot(5, 3) {
		t.Fatal("consuming the pending torn write should cool target 5")
	}
	if in.OSTSlowdownFactor(6, 2) != 3 || in.StorageHot(6, 2) {
		t.Fatal("a gray slowdown is priced by the engine, not the access hook: target 6 must be slowed and cold")
	}
}

// TestMessageHotBracketsNoOps is the message side: a node is hot while
// a delay window or flaky NIC is open or drop and flip budgets are
// pending, and nowhere else; node IDs past the tables are cold.
func TestMessageHotBracketsNoOps(t *testing.T) {
	in := NewInjector(&Plan{
		Spec: Spec{NICFlakyDropEvery: 3},
		Events: []Event{
			{Kind: MsgDelay, Time: 1, Node: 0, Target: -1, Duration: 1, Severity: 0.1},
			{Kind: MsgDrop, Time: 1, Node: 1, Target: -1},
			{Kind: MsgBitFlip, Time: 1, Node: 2, Target: -1},
			{Kind: NICFlaky, Time: 1, Node: 3, Target: -1, Duration: 1, Severity: 0.01},
			{Kind: Straggler, Time: 1, Node: 4, Target: -1, Duration: 1, Severity: 2},
		},
	})
	hot := func(now float64) []int {
		var out []int
		for n := 0; n < 50; n++ {
			if in.MessageHot(n, now) {
				out = append(out, n)
			}
		}
		return out
	}
	if got := hot(0.5); got != nil {
		t.Fatalf("hot before any event: %v", got)
	}
	in.Advance(1.5)
	if got := hot(1.5); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("hot nodes = %v, want [0 1 2 3] (a straggler is priced by the engine)", got)
	}
	in.TakeDrop(1)
	in.TakeMsgFlip(2)
	if got := hot(2.5); got != nil {
		t.Fatalf("hot after windows closed and budgets spent: %v", got)
	}
}

// TestInjectorHolds pins the family query the pricing loop gates its
// scans on: it names exactly the kinds the plan's events carry, before
// any of them fires, and a nil or empty injector holds none.
func TestInjectorHolds(t *testing.T) {
	in := NewInjector(&Plan{Events: []Event{
		{Kind: MemLeak, Time: 5, Node: 2, Target: -1, Duration: 1, Severity: 0.5},
		{Kind: TornWrite, Time: 7, Node: -1, Target: 3},
	}})
	for k := range Kind(numKinds) {
		if got, want := in.Holds(k), k == MemLeak || k == TornWrite; got != want {
			t.Errorf("Holds(%v) = %v, want %v", k, got, want)
		}
	}
	if !in.Holds(OSTTransient, OSTPermanent, TornWrite) || in.Holds(MsgDelay, MsgDrop, NICFlaky) || in.Holds() {
		t.Error("Holds over several kinds must report whether any of them is held")
	}
	var none *Injector
	if none.Holds(MemLeak) || NewInjector(nil).Holds(MemLeak) {
		t.Error("a nil or empty injector holds no kind")
	}
}
