package pricing

import (
	"math"
	"testing"
)

func TestPagedSlowdown(t *testing.T) {
	if got := PagedSlowdown(0, 0.25); got != 1 {
		t.Fatalf("unpaged slowdown = %v, want 1", got)
	}
	if got := PagedSlowdown(-0.5, 0.25); got != 1 {
		t.Fatalf("negative severity slowdown = %v, want 1", got)
	}
	// Fully paged: buffer runs at pagedBWFrac of DRAM speed.
	if got, want := PagedSlowdown(1, 0.25), 4.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("fully paged slowdown = %v, want %v", got, want)
	}
	// Half severity interpolates linearly in the bandwidth loss.
	if got, want := PagedSlowdown(0.5, 0.25), 1/(1-0.5*0.75); got != want {
		t.Fatalf("half paged slowdown = %v, want %v", got, want)
	}
}

func TestEffMemBW(t *testing.T) {
	// At or under NahOpt: only paging and straggler divisors apply.
	if got, want := EffMemBW(100, 2, 1, 4, 4), 50.0; got != want {
		t.Fatalf("effMemBW = %v, want %v", got, want)
	}
	// One aggregator over: contention divisor kicks in.
	if got, want := EffMemBW(100, 1, 1, 5, 4), 100/1.35; got != want {
		t.Fatalf("contended effMemBW = %v, want %v", got, want)
	}
}

func TestCommTimeBinding(t *testing.T) {
	cases := []struct {
		name string
		l    NodeLoad
		res  string
	}{
		{"out-bound", NodeLoad{Out: 1 << 30, Msgs: 1}, BindNICOut},
		{"in-bound", NodeLoad{In: 1 << 30, Out: 1, Msgs: 1}, BindNICIn},
		{"mem-bound", NodeLoad{Mem: 1 << 40, Out: 1, Msgs: 1}, BindMem},
		{"latency-bound", NodeLoad{Out: 1, Msgs: 1 << 20}, BindLatency},
	}
	for _, c := range cases {
		t2, res, tlat := CommTime(c.l, 2e9, 1, 25e9, 5e-6)
		if res != c.res {
			t.Errorf("%s: bound by %s, want %s", c.name, res, c.res)
		}
		if tlat != float64(c.l.Msgs)*5e-6 {
			t.Errorf("%s: tlat = %v", c.name, tlat)
		}
		if t2 < tlat {
			t.Errorf("%s: time %v below latency term %v", c.name, t2, tlat)
		}
	}
}

func TestPagedCommFraction(t *testing.T) {
	if got := PagedCommFraction(1, 0.1, 1); got != 0 {
		t.Fatalf("unpaged fraction = %v, want 0", got)
	}
	if got := PagedCommFraction(0, 0, 2); got != 0 {
		t.Fatalf("zero-time fraction = %v, want 0", got)
	}
	// All stream, slowdown 2: half the time is paging excess.
	if got, want := PagedCommFraction(1, 0, 2), 0.5; got != want {
		t.Fatalf("fraction = %v, want %v", got, want)
	}
}

func TestStorageServiceTime(t *testing.T) {
	s := Storage{TargetBW: 500e6, ReadBWFactor: 1.25, ReqOverhead: 0.5e-3, NoncontigFactor: 4}
	if got, want := s.StreamBW(true), 500e6; got != want {
		t.Fatalf("write BW = %v, want %v", got, want)
	}
	if got, want := s.StreamBW(false), 625e6; got != want {
		t.Fatalf("read BW = %v, want %v", got, want)
	}
	if got, want := (Storage{TargetBW: 500e6}).StreamBW(false), 500e6; got != want {
		t.Fatalf("symmetric read BW = %v, want %v", got, want)
	}
	contig := s.ServiceTime(500e6, 2, true, true)
	if want := 0.5e-3*2 + 1; contig != want {
		t.Fatalf("contiguous service = %v, want %v", contig, want)
	}
	noncontig := s.ServiceTime(500e6, 2, false, true)
	if want := 0.5e-3*2 + 4; noncontig != want {
		t.Fatalf("noncontiguous service = %v, want %v", noncontig, want)
	}
}

func TestRoundWall(t *testing.T) {
	if got := RoundWall(2, 3, false); got != 5 {
		t.Fatalf("blocking wall = %v, want 5", got)
	}
	if got := RoundWall(2, 3, true); got != 3 {
		t.Fatalf("overlapped wall = %v, want 3", got)
	}
}
