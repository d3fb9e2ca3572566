package mpi

import (
	"strings"
	"testing"
	"time"
)

// A rank that waits on a peer that never sends must fail fast with a
// diagnostic instead of hanging the test binary.
func TestWatchdogDiagnosesNeverSendingPeer(t *testing.T) {
	w := NewWorld(mustTopo(t, 2, 2))
	w.SetTimeout(50 * time.Millisecond)
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(p *Proc) {
			if p.Rank() == 0 {
				p.Recv(1, 7) // rank 1 never sends
			}
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected a watchdog error, got nil")
		}
		for _, want := range []string{"watchdog", "rank 0", "rank 1", "tag 7"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("diagnostic %q missing %q", err, want)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog did not fire; world hung")
	}
}

// A rank dying mid-exchange must tear the world down: every other
// rank unwinds, Run returns the root cause, and the process does not
// deadlock even without a watchdog.
func TestDeadRankTearsDownWorld(t *testing.T) {
	w := NewWorld(mustTopo(t, 4, 2))
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(p *Proc) {
			if p.Rank() == 2 {
				panic("simulated node crash")
			}
			p.Recv(2, 0) // blocks on rank 2 forever without teardown
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected the crash to surface, got nil")
		}
		if !strings.Contains(err.Error(), "rank 2") || !strings.Contains(err.Error(), "simulated node crash") {
			t.Errorf("root cause not reported: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("world deadlocked after rank death")
	}
}

// The root cause is stable: whichever secondary teardown unwinds later,
// Run reports the first failure.
func TestTeardownReportsRootCauseOnly(t *testing.T) {
	for i := 0; i < 10; i++ {
		w := NewWorld(mustTopo(t, 6, 3))
		err := w.Run(func(p *Proc) {
			if p.Rank() == 5 {
				panic("first failure")
			}
			p.Recv(5, 0)
		})
		if err == nil || !strings.Contains(err.Error(), "first failure") {
			t.Fatalf("iteration %d: got %v, want the rank 5 panic", i, err)
		}
	}
}

// A healthy world with a watchdog armed behaves identically to one
// without: the timeout only fires on genuine stalls.
func TestWatchdogInertOnHealthyWorld(t *testing.T) {
	w := NewWorld(mustTopo(t, 4, 2))
	w.SetTimeout(2 * time.Second)
	sum := make([]int, 4)
	err := w.Run(func(p *Proc) {
		for dst := 0; dst < p.Size(); dst++ {
			p.Send(dst, 0, []byte{byte(p.Rank())})
		}
		for src := 0; src < p.Size(); src++ {
			sum[p.Rank()] += int(p.Recv(src, 0)[0])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, s := range sum {
		if s != 6 {
			t.Fatalf("rank %d summed %d, want 6", r, s)
		}
	}
}

// A blocked Send (full mailbox, receiver dead) must also unwind.
func TestBlockedSendUnwindsOnFailure(t *testing.T) {
	w := NewWorld(mustTopo(t, 2, 2))
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(p *Proc) {
			if p.Rank() == 1 {
				// Give rank 0 time to fill the mailbox and block.
				time.Sleep(20 * time.Millisecond)
				panic("receiver died")
			}
			for {
				p.Send(1, 3, make([]byte, 1)) // eventually fills rank 1's mailbox
			}
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "receiver died") {
			t.Fatalf("got %v, want the receiver's panic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked sender was not unwound")
	}
}

func mustTopo(t *testing.T, size, perNode int) Topology {
	t.Helper()
	topo, err := BlockTopology(size, perNode)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}
