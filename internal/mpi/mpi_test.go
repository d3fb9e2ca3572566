package mpi

import (
	"fmt"
	"reflect"
	"testing"
)

func TestBlockTopology(t *testing.T) {
	topo, err := BlockTopology(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Size() != 10 || topo.Nodes() != 3 {
		t.Fatalf("size/nodes = %d/%d", topo.Size(), topo.Nodes())
	}
	wantNodes := []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2}
	for r, want := range wantNodes {
		if topo.NodeOf(r) != want {
			t.Errorf("NodeOf(%d) = %d, want %d", r, topo.NodeOf(r), want)
		}
	}
	if got := topo.RanksOnNode(1); !reflect.DeepEqual(got, []int{4, 5, 6, 7}) {
		t.Fatalf("RanksOnNode(1) = %v", got)
	}
	if got := topo.RanksOnNode(2); !reflect.DeepEqual(got, []int{8, 9}) {
		t.Fatalf("RanksOnNode(2) = %v", got)
	}
}

func TestTopologyErrors(t *testing.T) {
	if _, err := BlockTopology(0, 1); err == nil {
		t.Error("size 0 accepted")
	}
	if _, err := BlockTopology(4, 0); err == nil {
		t.Error("ranksPerNode 0 accepted")
	}
	if _, err := ExplicitTopology(nil); err == nil {
		t.Error("empty explicit topology accepted")
	}
	if _, err := ExplicitTopology([]int{0, -1}); err == nil {
		t.Error("negative node accepted")
	}
}

func TestExplicitTopology(t *testing.T) {
	topo, err := ExplicitTopology([]int{2, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Nodes() != 3 || topo.NodeOf(0) != 2 || topo.NodeOf(1) != 0 {
		t.Fatalf("bad explicit topology: %+v", topo)
	}
}

func world(t *testing.T, size, perNode int) *World {
	t.Helper()
	topo, err := BlockTopology(size, perNode)
	if err != nil {
		t.Fatal(err)
	}
	return NewWorld(topo)
}

func TestSendRecv(t *testing.T) {
	w := world(t, 2, 2)
	err := w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 7, []byte("hello"))
		} else {
			if got := p.Recv(0, 7); string(got) != "hello" {
				panic(fmt.Sprintf("got %q", got))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvMatchesTagAndSource(t *testing.T) {
	w := world(t, 3, 3)
	err := w.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(2, 5, []byte("from0tag5"))
			p.Send(2, 6, []byte("from0tag6"))
		case 1:
			p.Send(2, 5, []byte("from1tag5"))
		case 2:
			// Receive out of arrival order: tag 6 first, then the others.
			if got := p.Recv(0, 6); string(got) != "from0tag6" {
				panic(string(got))
			}
			if got := p.Recv(1, 5); string(got) != "from1tag5" {
				panic(string(got))
			}
			if got := p.Recv(0, 5); string(got) != "from0tag5" {
				panic(string(got))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	w := world(t, 2, 2)
	err := w.Run(func(p *Proc) {
		const n = 50
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				p.Send(1, 3, []byte{byte(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				if got := p.Recv(0, 3); got[0] != byte(i) {
					panic(fmt.Sprintf("message %d out of order: %d", i, got[0]))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	w := world(t, 2, 2)
	err := w.Run(func(p *Proc) {
		if p.Rank() == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestSendInvalidRankPanics(t *testing.T) {
	w := world(t, 2, 2)
	err := w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(5, 0, nil)
		}
	})
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestProcAccessors(t *testing.T) {
	w := world(t, 6, 2)
	seen := make([]bool, 6)
	err := w.Run(func(p *Proc) {
		if p.Size() != 6 {
			panic("size")
		}
		seen[p.Rank()] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ok := range seen {
		if !ok {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestManyRanksStress(t *testing.T) {
	// 120 ranks on 10 nodes, the paper's small configuration: every rank
	// sends one byte to every rank, then receives from every rank in rank
	// order, as the executor's exchange does.
	w := world(t, 120, 12)
	err := w.Run(func(p *Proc) {
		for dst := 0; dst < p.Size(); dst++ {
			p.Send(dst, 3, []byte{byte(p.Rank() % 251)})
		}
		for src := 0; src < p.Size(); src++ {
			if got := p.Recv(src, 3); got[0] != byte(src%251) {
				panic(fmt.Sprintf("rank %d from %d: %d", p.Rank(), src, got[0]))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
