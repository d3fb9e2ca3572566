package mpi

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"mcio/internal/obs"
)

// message is one in-flight point-to-point transfer.
type message struct {
	src  int
	tag  int
	data []byte
}

// World is a set of ranks that can communicate. Create one with NewWorld,
// then execute a rank program with Run.
type World struct {
	topo    Topology
	inboxes []chan message

	// Failure machinery: the first rank that dies closes down (carrying
	// its error in downErr), which unwinds every rank still blocked in
	// Send/Recv instead of deadlocking the world. timeout, when set,
	// arms a watchdog on each blocking Send/Recv so a peer that never
	// sends is diagnosed rather than hung on.
	timeout  time.Duration
	down     chan struct{}
	downOnce sync.Once
	downErr  error

	// Per-rank traffic counters, pre-resolved at SetObserver time so the
	// Send/Recv hot path pays one nil check plus atomic adds. All slices
	// are nil when no observer is attached.
	sentMsgs  []*obs.Counter
	sentBytes []*obs.Counter
	recvMsgs  []*obs.Counter
	recvBytes []*obs.Counter
}

// defaultMailboxFactor sizes each rank's mailbox: enough buffering that
// every peer can have several sends outstanding, which keeps naive
// exchange patterns (everyone sends, then everyone receives) deadlock-free
// at the scales this simulator runs.
const defaultMailboxFactor = 8

// NewWorld creates a world whose ranks are placed by topo.
func NewWorld(topo Topology) *World {
	w := &World{
		topo:    topo,
		inboxes: make([]chan message, topo.Size()),
		down:    make(chan struct{}),
	}
	capacity := topo.Size()*defaultMailboxFactor + 16
	for i := range w.inboxes {
		w.inboxes[i] = make(chan message, capacity)
	}
	return w
}

// SetObserver attaches metrics to the world: per-rank point-to-point
// traffic (mpi.msgs_sent{rank}, mpi.bytes_sent{rank}, and the recv
// counterparts). Counters are shared by all rank goroutines and
// atomically updated. A nil observer (or one without a
// registry) leaves the world uninstrumented. Call before Run.
func (w *World) SetObserver(o *obs.Observer) {
	if o == nil || o.Metrics == nil {
		w.sentMsgs, w.sentBytes, w.recvMsgs, w.recvBytes = nil, nil, nil, nil
		return
	}
	n := w.topo.Size()
	w.sentMsgs = make([]*obs.Counter, n)
	w.sentBytes = make([]*obs.Counter, n)
	w.recvMsgs = make([]*obs.Counter, n)
	w.recvBytes = make([]*obs.Counter, n)
	for r := 0; r < n; r++ {
		l := obs.L("rank", strconv.Itoa(r))
		w.sentMsgs[r] = o.Counter("mpi.msgs_sent", l)
		w.sentBytes[r] = o.Counter("mpi.bytes_sent", l)
		w.recvMsgs[r] = o.Counter("mpi.msgs_recv", l)
		w.recvBytes[r] = o.Counter("mpi.bytes_recv", l)
	}
}

// SetTimeout arms a watchdog on every blocking Send and Recv: a call
// that waits longer than d fails the world with a diagnostic naming the
// blocked rank, peer and tag instead of hanging the process. Zero (the
// default) disables the watchdog. Call before Run.
func (w *World) SetTimeout(d time.Duration) { w.timeout = d }

// teardown is the panic payload used to unwind ranks blocked on a world
// that another rank has already failed; Run reports such panics as
// secondary, keeping the root cause as the world's error.
type teardown struct{ msg string }

// fail records the world's first failure and closes down, releasing
// every rank blocked in Send or Recv. downErr is safe to read after
// down is closed (the write happens-before the close).
func (w *World) fail(err error) {
	w.downOnce.Do(func() {
		w.downErr = err
		close(w.down)
	})
}

// failure returns the root-cause error; call only after down is closed.
func (w *World) failure() error {
	select {
	case <-w.down:
		return w.downErr
	default:
		return nil
	}
}

// Proc is one rank's handle onto the world. A Proc is confined to the
// goroutine Run started for it.
type Proc struct {
	world   *World
	rank    int
	pending []message // received but not yet matched
}

// Rank returns this process's rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of ranks in the world.
func (p *Proc) Size() int { return p.world.topo.Size() }

// Run executes body once per rank, each in its own goroutine, and waits
// for all of them. A panic in any rank is recovered and fails the world:
// the down channel is closed so every other rank blocked in Send or Recv
// unwinds gracefully instead of deadlocking, and Run returns the
// root-cause error (the first rank that died), not the secondary
// teardown unwinds it triggered.
func (w *World) Run(body func(p *Proc)) error {
	var wg sync.WaitGroup
	for r := 0; r < w.topo.Size(); r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if _, secondary := rec.(teardown); secondary {
						return // world already failed; root cause recorded
					}
					w.fail(fmt.Errorf("mpi: rank %d panicked: %v", rank, rec))
				}
			}()
			body(&Proc{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	return w.failure()
}

// Send delivers data to rank dst with the given tag. The slice is handed
// off by reference; senders must not mutate it afterwards (collective code
// in this repository always sends freshly built or read-only buffers).
// Send blocks only when dst's mailbox is full; a blocked Send unwinds if
// the world fails and, with SetTimeout armed, diagnoses a receiver that
// never drains its mailbox.
func (p *Proc) Send(dst, tag int, data []byte) {
	if dst < 0 || dst >= p.Size() {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	w := p.world
	if w.sentMsgs != nil {
		w.sentMsgs[p.rank].Inc()
		w.sentBytes[p.rank].Add(int64(len(data)))
	}
	m := message{src: p.rank, tag: tag, data: data}
	select {
	case w.inboxes[dst] <- m:
		return
	default:
	}
	var timeC <-chan time.Time
	if w.timeout > 0 {
		timer := time.NewTimer(w.timeout)
		defer timer.Stop()
		timeC = timer.C
	}
	select {
	case w.inboxes[dst] <- m:
	case <-w.down:
		panic(teardown{msg: fmt.Sprintf("rank %d torn down while sending to rank %d (tag %d)", p.rank, dst, tag)})
	case <-timeC:
		panic(fmt.Errorf("mpi: rank %d: send watchdog fired after %v: rank %d's mailbox stayed full (tag %d) — receiver dead or not receiving", p.rank, w.timeout, dst, tag))
	}
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. Matching is FIFO per (src, tag). A blocked Recv
// unwinds if the world fails; with SetTimeout armed it panics with a
// diagnostic naming the awaited peer and tag instead of hanging the
// test binary on a dead or never-sending rank. The watchdog deadline is
// per call: unrelated arrivals do not extend it.
func (p *Proc) Recv(src, tag int) []byte {
	if src < 0 || src >= p.Size() {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	for i, m := range p.pending {
		if m.src == src && m.tag == tag {
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			p.countRecv(m)
			return m.data
		}
	}
	w := p.world
	var timeC <-chan time.Time
	if w.timeout > 0 {
		timer := time.NewTimer(w.timeout)
		defer timer.Stop()
		timeC = timer.C
	}
	for {
		select {
		case m := <-w.inboxes[p.rank]:
			if m.src == src && m.tag == tag {
				p.countRecv(m)
				return m.data
			}
			p.pending = append(p.pending, m)
		case <-w.down:
			panic(teardown{msg: fmt.Sprintf("rank %d torn down while receiving from rank %d (tag %d)", p.rank, src, tag)})
		case <-timeC:
			panic(fmt.Errorf("mpi: rank %d: receive watchdog fired after %v waiting for rank %d (tag %d) — peer dead or never sent", p.rank, w.timeout, src, tag))
		}
	}
}

// countRecv accounts a matched message to the receiving rank's counters.
func (p *Proc) countRecv(m message) {
	if w := p.world; w.recvMsgs != nil {
		w.recvMsgs[p.rank].Inc()
		w.recvBytes[p.rank].Add(int64(len(m.data)))
	}
}
