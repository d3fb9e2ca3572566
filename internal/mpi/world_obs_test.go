package mpi

import (
	"strconv"
	"testing"

	"mcio/internal/obs"
)

// TestWorldObserver checks the per-rank traffic counters against a known
// exchange pattern; run under -race it also proves the counters are safe
// for the goroutine-per-rank runtime.
func TestWorldObserver(t *testing.T) {
	topo, err := BlockTopology(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(topo)
	o := obs.New()
	w.SetObserver(o)
	payload := 100
	err = w.Run(func(p *Proc) {
		// Ring: each rank sends payload bytes to the next rank.
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() + p.Size() - 1) % p.Size()
		p.Send(next, 7, make([]byte, payload))
		p.Recv(prev, 7)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < topo.Size(); r++ {
		l := obs.L("rank", strconv.Itoa(r))
		if got := o.Counter("mpi.msgs_sent", l).Value(); got != 1 {
			t.Errorf("rank %d msgs_sent = %d, want 1", r, got)
		}
		if got := o.Counter("mpi.bytes_sent", l).Value(); got != int64(payload) {
			t.Errorf("rank %d bytes_sent = %d, want %d", r, got, payload)
		}
		if got := o.Counter("mpi.msgs_recv", l).Value(); got != 1 {
			t.Errorf("rank %d msgs_recv = %d, want 1", r, got)
		}
		if got := o.Counter("mpi.bytes_recv", l).Value(); got != int64(payload) {
			t.Errorf("rank %d bytes_recv = %d, want %d", r, got, payload)
		}
	}
}

// TestWorldObserverDetach checks that a nil observer leaves the world
// uninstrumented and that detaching works after attaching.
func TestWorldObserverDetach(t *testing.T) {
	topo, err := BlockTopology(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(topo)
	o := obs.New()
	w.SetObserver(o)
	w.SetObserver(nil)
	if err := w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, []byte("x"))
		} else {
			p.Recv(0, 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := o.Counter("mpi.msgs_sent", obs.L("rank", "0")).Value(); got != 0 {
		t.Fatalf("detached world still counted %d sends", got)
	}
}
