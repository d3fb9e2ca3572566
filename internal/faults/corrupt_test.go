package faults

import (
	"bytes"
	"reflect"
	"testing"
)

func TestWithCorruptionGeneratesBothKinds(t *testing.T) {
	p, err := DefaultSpec(42, 2.0).WithRate(0).WithCorruption(4).Generate(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[Kind]int{}
	for _, e := range p.Events {
		kinds[e.Kind]++
		switch e.Kind {
		case MsgBitFlip:
			if e.Node < 0 || e.Node >= 8 {
				t.Fatalf("bit-flip event with node %d", e.Node)
			}
		case TornWrite:
			if e.Target < 0 || e.Target >= 8 {
				t.Fatalf("torn-write event with target %d", e.Target)
			}
		default:
			t.Fatalf("corruption-only spec scheduled a %v event", e.Kind)
		}
	}
	if kinds[MsgBitFlip] == 0 || kinds[TornWrite] == 0 {
		t.Fatalf("corruption spec scheduled %d flips / %d tears, want both > 0", kinds[MsgBitFlip], kinds[TornWrite])
	}
	if off, err := DefaultSpec(1, 1).WithCorruption(0).Generate(4, 4); err != nil {
		t.Fatal(err)
	} else {
		for _, e := range off.Events {
			if e.Kind == MsgBitFlip || e.Kind == TornWrite {
				t.Fatal("rate 0 still scheduled corruption events")
			}
		}
	}
}

// TestCorruptionKindsPreservePinnedSchedules pins the satellite guarantee
// that appending new fault kinds never perturbs the schedules of the
// existing kinds: a seed that reproduced a campaign before MsgBitFlip and
// TornWrite existed still reproduces it, corruption on or off.
func TestCorruptionKindsPreservePinnedSchedules(t *testing.T) {
	base := DefaultSpec(42, 2.0)
	plain, err := base.Generate(10, 16)
	if err != nil {
		t.Fatal(err)
	}
	withCorr, err := base.WithCorruption(4).Generate(10, 16)
	if err != nil {
		t.Fatal(err)
	}
	var legacy []Event
	for _, e := range withCorr.Events {
		if e.Kind != MsgBitFlip && e.Kind != TornWrite {
			legacy = append(legacy, e)
		}
	}
	if !reflect.DeepEqual(plain.Events, legacy) {
		t.Fatal("enabling corruption kinds perturbed the pre-existing event streams")
	}
}

func TestInjectorConsumesCorruptionEvents(t *testing.T) {
	plan := &Plan{Events: []Event{
		{Kind: MsgBitFlip, Time: 0.2, Node: 1, Target: -1},
		{Kind: MsgBitFlip, Time: 0.3, Node: 1, Target: -1},
		{Kind: TornWrite, Time: 0.4, Node: -1, Target: 2},
	}}
	in := NewInjector(plan)
	if in.TakeMsgFlip(1) || in.TakeTornWrite(2) {
		t.Fatal("corruption consumed before its event fired")
	}
	in.Advance(1)
	if !in.TakeMsgFlip(1) || !in.TakeMsgFlip(1) || in.TakeMsgFlip(1) {
		t.Fatal("each MsgBitFlip event must corrupt exactly one message")
	}
	if in.TakeMsgFlip(0) {
		t.Fatal("flip leaked to the wrong node")
	}
	if !in.TakeTornWrite(2) || in.TakeTornWrite(2) {
		t.Fatal("each TornWrite event must tear exactly one access")
	}
	if got := in.Counts()["msg-bitflip"]; got != 2 {
		t.Fatalf("flip count = %d, want 2", got)
	}
	if got := in.Counts()["torn-write"]; got != 1 {
		t.Fatalf("tear count = %d, want 1", got)
	}
}

// TestOSTPermanentAppliesAtEventTime is the satellite regression test: an
// OSTPermanent event scheduled mid-round must degrade the target for
// queries at or after its event time, not only once the next Advance
// (round boundary) formally applies it.
func TestOSTPermanentAppliesAtEventTime(t *testing.T) {
	plan := &Plan{
		Spec: Spec{RetryBackoff: 0.01, MaxRetries: 4},
		Events: []Event{
			{Kind: OSTPermanent, Time: 1.0, Node: -1, Target: 3},
		},
	}
	in := NewInjector(plan)
	in.Advance(0.5) // round boundary before the event

	if _, _, deg := in.OSTPenalty(3, 0.9); deg {
		t.Fatal("target degraded before the event time")
	}
	// Mid-round access after the scheduled time: previously this reported
	// healthy until the next Advance; it must degrade at event time.
	if _, _, deg := in.OSTPenalty(3, 1.0); !deg {
		t.Fatal("mid-round access at the event time did not see the degradation")
	}
	// The event itself is still counted by Advance, exactly once.
	if got := in.Counts()["ost-permanent"]; got != 0 {
		t.Fatalf("mid-round visibility double-counted the event (%d)", got)
	}
	if evs := in.Advance(2); len(evs) != 1 {
		t.Fatalf("round boundary fired %d events, want 1", len(evs))
	}
	if got := in.Counts()["ost-permanent"]; got != 1 {
		t.Fatalf("event counted %d times, want 1", got)
	}
}

// TestOSTPermanentDuringBackoffLadder covers the other half of the fix: a
// retry ladder that backs off past the scheduled permanent failure must
// finish against a degraded target.
func TestOSTPermanentDuringBackoffLadder(t *testing.T) {
	plan := &Plan{
		Spec: Spec{RetryBackoff: 0.05, MaxRetries: 4},
		Events: []Event{
			{Kind: OSTTransient, Time: 0.1, Node: -1, Target: 0, Duration: 0.2},
			{Kind: OSTPermanent, Time: 0.25, Node: -1, Target: 0},
		},
	}
	in := NewInjector(plan)
	in.Advance(0.2) // transient window applied; permanent still pending
	// Ladder from t=0.2: backoff 0.05 -> t=0.25, which reaches the
	// scheduled permanent failure while still inside the window.
	if _, _, deg := in.OSTPenalty(0, 0.2); !deg {
		t.Fatal("ladder crossing the permanent-failure time did not degrade the target")
	}
}

func TestCorrupterDeterministicFlips(t *testing.T) {
	plan := &Plan{Events: []Event{
		{Kind: MsgBitFlip, Time: 0.1, Node: 0, Target: -1},
		{Kind: MsgBitFlip, Time: 0.2, Node: 0, Target: -1},
		{Kind: MsgBitFlip, Time: 0.3, Node: 1, Target: -1},
		{Kind: TornWrite, Time: 0.4, Node: -1, Target: 1},
	}}
	ranksByNode := [][]int{{0, 1}, {2, 3}}

	run := func() ([][]byte, int, int, int64) {
		c := NewCorrupter(plan, ranksByNode)
		var outs [][]byte
		for rank := 0; rank < 4; rank++ {
			for msg := 0; msg < 2; msg++ {
				buf := bytes.Repeat([]byte{0x5a}, 16)
				c.CorruptMsg(rank, buf)
				outs = append(outs, buf)
			}
		}
		if !c.PendingTorn(1) || c.PendingTorn(0) {
			panic("scheduled tear events not visible on the right target")
		}
		// Tear selection is a pure hash of (seed, target, offset): walk
		// stripe-aligned offsets until one is selected.
		tornOff := int64(-1)
		for off := int64(0); off < 64*1024; off += 64 {
			if c.TearWrite(0, off) {
				panic("target without tear events tore a write")
			}
			if c.TearWrite(1, off) {
				tornOff = off
				break
			}
		}
		if tornOff < 0 {
			panic("density 1/16 selected nothing in 1024 accesses")
		}
		if c.TearWrite(1, tornOff) {
			panic("the same offset tore twice; a repair rewrite could never land")
		}
		return outs, c.InjectedFlips(), c.InjectedTorn(), tornOff
	}
	a, flipsA, tornA, offA := run()
	b, flipsB, tornB, offB := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same plan and rank map produced different corrupted bytes")
	}
	if flipsA != flipsB || tornA != tornB || offA != offB || flipsA == 0 || tornA != 1 {
		t.Fatalf("injection: %d/%d@%d then %d/%d@%d", flipsA, tornA, offA, flipsB, tornB, offB)
	}

	// Node 0's two events went round-robin to ranks 0 and 1, one message
	// each; node 1's single event to rank 2. Every corrupted message
	// differs from the pristine pattern in exactly one bit.
	pristine := bytes.Repeat([]byte{0x5a}, 16)
	flipped := 0
	for i, out := range a {
		diff := 0
		for j := range out {
			diff += popcount8(out[j] ^ pristine[j])
		}
		if diff > 1 {
			t.Fatalf("message %d has %d flipped bits, want at most 1", i, diff)
		}
		flipped += diff
	}
	if flipped != 3 {
		t.Fatalf("%d messages corrupted in total, want 3", flipped)
	}

	var nilCorr *Corrupter = NewCorrupter(nil, nil)
	buf := []byte{1, 2, 3}
	if nilCorr.CorruptMsg(0, buf) {
		t.Fatal("empty corrupter corrupted a message")
	}
}

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}
