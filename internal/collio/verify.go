package collio

import (
	"bytes"
	"fmt"
	"time"

	"mcio/internal/faults"
	"mcio/internal/integrity"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
)

// The verified shuffle adds four message classes on top of the data
// chunks, all addressed with tag arithmetic over nd = len(plan.Domains):
//
//	data     tag i        the chunk itself
//	sums     tag nd+i     the producer's stamped checksums for the chunk
//	ack      tag 2nd+i    verifier -> producer: ackOK or ackResend
//	re-data  tag 3nd+i    a re-requested chunk (repair path)
//	re-sums  tag 4nd+i    its fresh checksums
//
// Acks only flow when repair is enabled, and each producer serves one
// verifier's ack loop to completion before moving on; since every rank
// processes domains in ascending index, the protocol is deadlock-free by
// induction on the domain order (the aggregator of domain i reaches it
// after all parties finished every domain < i, and each per-chunk ack
// loop is bounded by the repair budget).
const (
	ackResend = 0
	ackOK     = 1
)

// execWatchdog bounds every blocking Send and Recv of the executor's
// ranks: a rank stuck that long fails the call with a diagnosis naming
// it, instead of hanging the process. Minutes, so that a loaded host
// under the race detector never trips it on a live rank.
const execWatchdog = 5 * time.Minute

// ExecVerified is the data executor: it really performs the collective
// operation described by plan. Ranks run as goroutines, shuffle their
// contributions to the plan's aggregators, and the aggregators read or
// write the striped file. On write, each aggregator assembles its whole
// file domain in memory before issuing the writes; tests run at sizes
// where that is the simplest faithful rendering of the data path (the
// cost executor models the buffer-cycling rounds).
//
// For overlapping write requests the lowest-ranked writer's bytes may be
// overwritten by higher ranks, matching the unspecified outcome MPI gives
// concurrent overlapping collective writes.
//
// chk, when non-nil, threads the end-to-end integrity layer through the
// data path: producers stamp seeded checksums on every chunk they ship,
// verifiers re-check them after the shuffle, and aggregators read their
// file domains back after write-back and compare against the staged
// bytes, object access by object access. When chk has repair enabled, a
// chunk that fails verification is re-requested from its producer and a
// torn object access is rewritten, each up to the checker's repair
// budget.
//
// corr, when non-nil, replays the plan's silent-corruption events on the
// real bytes: one bit flip per scheduled MsgBitFlip on a data chunk
// leaving the flipped rank, one torn object write per scheduled
// TornWrite on the affected target (installed on the file system by the
// caller via pfs.SetCorrupter).
//
// hed, when non-nil, requests hedged duplicate deliveries of the chunks
// it picks; duplicates ride the repair protocol, so hedging needs chk
// with repair enabled.
//
// With all three nil, as Exec calls it, the shuffle ships each chunk
// once, with no checksum, ack or duplicate messages.
func ExecVerified(ctx *Context, plan *Plan, data []RankData, file *pfs.File, op Op,
	chk *integrity.Checker, corr *faults.Corrupter, hed *Hedger) error {
	if err := ctx.Validate(); err != nil {
		return err
	}
	if len(data) != ctx.Topo.Size() {
		return fmt.Errorf("collio: got %d rank buffers for %d ranks", len(data), ctx.Topo.Size())
	}
	for r, d := range data {
		if d.Req.Rank != r {
			return fmt.Errorf("collio: rank buffer %d labeled rank %d", r, d.Req.Rank)
		}
		if want := d.Req.Bytes(); int64(len(d.Buf)) != want {
			return fmt.Errorf("collio: rank %d buffer is %d bytes, request needs %d", r, len(d.Buf), want)
		}
	}

	normReq, scheds := buildScheds(plan, data)
	nd := len(plan.Domains)

	world := mpi.NewWorld(ctx.Topo)
	world.SetObserver(ctx.Obs)
	world.SetTimeout(execWatchdog)
	return world.Run(func(p *mpi.Proc) {
		me := p.Rank()
		for i, d := range plan.Domains {
			sched := &scheds[i]
			myIdx := -1
			for j, r := range sched.contributors {
				if r == me {
					myIdx = j
					break
				}
			}
			if op == Write {
				if myIdx >= 0 && me != d.Aggregator {
					sendVerified(p, d.Aggregator, nd, i, chk, corr,
						func() []byte { return gather(normReq[me], data[me].Buf, sched.overlap[myIdx]) },
						sched.overlap[myIdx])
				}
				if me != d.Aggregator {
					continue
				}
				// Zeroed: domain bytes no contributor covers must land on
				// disk as zeros, exactly as a fresh allocation would.
				domBuf := getStage(d.Bytes)
				clear(domBuf)
				for j, r := range sched.contributors {
					ov := sched.overlap[j]
					var chunk []byte
					if r == me {
						// Local copy: no wire hop, nothing to corrupt or verify.
						chunk = gather(normReq[me], data[me].Buf, ov)
					} else {
						chunk = recvVerified(p, r, nd, i, chk, ov, hed)
					}
					scatter(d.Extents, domBuf, ov, chunk)
					putStage(chunk)
				}
				var pos int64
				for _, e := range d.Extents {
					if _, err := file.WriteAt(domBuf[pos:pos+e.Length], e.Offset); err != nil {
						panic(err)
					}
					pos += e.Length
				}
				if chk.Enabled() {
					verifyWriteBack(file, d.Extents, domBuf, chk)
				}
				putStage(domBuf)
				continue
			}
			// Read: the aggregator loads the domain and distributes; each
			// consumer verifies its slice and may re-request it. The
			// extents sum to d.Bytes, so the reads fill the whole buffer —
			// no zeroing needed.
			if me == d.Aggregator {
				domBuf := getStage(d.Bytes)
				var pos int64
				for _, e := range d.Extents {
					if _, err := file.ReadAt(domBuf[pos:pos+e.Length], e.Offset); err != nil {
						panic(err)
					}
					pos += e.Length
				}
				for j, r := range sched.contributors {
					ov := sched.overlap[j]
					if r == me {
						chunk := gather(d.Extents, domBuf, ov)
						scatter(normReq[me], data[me].Buf, ov, chunk)
						putStage(chunk)
						continue
					}
					sendVerified(p, r, nd, i, chk, corr,
						func() []byte { return gather(d.Extents, domBuf, ov) }, ov)
				}
				putStage(domBuf)
			}
			if myIdx >= 0 && me != d.Aggregator {
				ov := sched.overlap[myIdx]
				chunk := recvVerified(p, d.Aggregator, nd, i, chk, ov, hed)
				scatter(normReq[me], data[me].Buf, ov, chunk)
				putStage(chunk)
			}
		}
	})
}

// sendVerified ships one chunk (regenerated by mk for each attempt) to
// dst, stamping sums and serving dst's ack loop when repair is on. The
// corrupter sees every outgoing data chunk — including resends, which may
// be freshly corrupted — but never the sums side-channel, so one consumed
// flip event corrupts exactly one verifiable message.
func sendVerified(p *mpi.Proc, dst, nd, i int, chk *integrity.Checker, corr *faults.Corrupter,
	mk func() []byte, ov []pfs.Extent) {
	chunk := mk()
	sums := chk.Stamp(ov, chunk)
	corr.CorruptMsg(p.Rank(), chunk)
	p.Send(dst, i, chunk)
	if !chk.Enabled() {
		return
	}
	p.Send(dst, nd+i, integrity.EncodeSums(sums))
	if !chk.Repair() {
		return
	}
	for {
		ack := p.Recv(dst, 2*nd+i)
		if len(ack) > 0 && ack[0] == ackOK {
			return
		}
		re := mk()
		reSums := chk.Stamp(ov, re)
		corr.CorruptMsg(p.Rank(), re)
		p.Send(dst, 3*nd+i, re)
		p.Send(dst, 4*nd+i, integrity.EncodeSums(reSums))
	}
}

// recvVerified receives one chunk from src and verifies it against the
// producer's sums. With repair on it re-requests a failing chunk up to
// the checker's budget, counting each freshly corrupted resend as a new
// detection, then releases the producer with a final ackOK. The returned
// chunk is the best copy obtained (with repair off or an exhausted
// budget, a corrupted one — detected and counted, as a checksummed-but-
// unrepaired transport would leave it).
func recvVerified(p *mpi.Proc, src, nd, i int, chk *integrity.Checker, ov []pfs.Extent, hed *Hedger) []byte {
	chunk := p.Recv(src, i)
	if !chk.Enabled() {
		return chunk
	}
	sums, err := integrity.DecodeSums(p.Recv(src, nd+i))
	if err != nil {
		// The corrupter never touches sums messages; a malformed one is a
		// protocol bug, not an injected fault.
		panic(err)
	}
	verr := chk.Verify(ov, chunk, sums)
	if verr != nil {
		if chk.Repair() {
			healed := false
			for attempt := 0; attempt < integrity.MaxRepairs; attempt++ {
				p.Send(src, 2*nd+i, []byte{ackResend})
				putStage(chunk)
				chunk = p.Recv(src, 3*nd+i)
				reSums, rerr := integrity.DecodeSums(p.Recv(src, 4*nd+i))
				if rerr != nil {
					panic(rerr)
				}
				if chk.Recheck(ov, chunk, reSums) {
					healed = true
					break
				}
				// The producer regenerates from its pristine buffer, so a
				// failing resend means a fresh flip landed on it.
				chk.CountDetected()
			}
			if healed {
				chk.CountRepaired()
			} else {
				chk.CountUnrepaired()
			}
		} else {
			chk.CountUnrepaired()
		}
	}
	if verr == nil && chk.Repair() && hed.Hedge(i, src) {
		// Hedged duplicate delivery: the original already verified (it
		// "won the race"), but a duplicate was requested before it
		// arrived. Pull the duplicate through the resend path, verify
		// it, and discard it — the winner's bytes are the only copy
		// that ever reaches the user buffer.
		hed.CountHedged()
		p.Send(src, 2*nd+i, []byte{ackResend})
		dup := p.Recv(src, 3*nd+i)
		dupSums, derr := integrity.DecodeSums(p.Recv(src, 4*nd+i))
		if derr != nil {
			panic(derr)
		}
		if chk.Recheck(ov, dup, dupSums) {
			hed.CountDeduped(int64(len(dup)))
		} else {
			// A fresh flip landed on the duplicate in flight; it is
			// detected and discarded all the same.
			chk.CountDetected()
		}
		putStage(dup)
	}
	if chk.Repair() {
		p.Send(src, 2*nd+i, []byte{ackOK})
	}
	return chunk
}

// verifyWriteBack reads the just-written extents back and compares them
// against the staged domain buffer, one object access at a time (the
// same stripe-unit-aligned pieces pfs.WriteAt issues, so one torn access
// is exactly one detectable mismatch). With repair on, a mismatching
// piece is rewritten and re-read up to the checker's budget; a rewrite
// that is itself torn counts as a fresh detection.
func verifyWriteBack(file *pfs.File, exts []pfs.Extent, domBuf []byte, chk *integrity.Checker) {
	su := file.StripeUnit()
	var pos int64
	for _, e := range exts {
		rb := getStage(e.Length)
		if _, err := file.ReadAt(rb, e.Offset); err != nil {
			panic(err)
		}
		var off int64
		for off < e.Length {
			n := su - (e.Offset+off)%su
			if n > e.Length-off {
				n = e.Length - off
			}
			want := domBuf[pos+off : pos+off+n]
			got := rb[off : off+n]
			if !bytes.Equal(got, want) {
				chk.CountDetected()
				if chk.Repair() {
					healed := false
					for attempt := 0; attempt < integrity.MaxRepairs; attempt++ {
						if _, err := file.WriteAt(want, e.Offset+off); err != nil {
							panic(err)
						}
						chk.CountRewritten(n)
						if _, err := file.ReadAt(got, e.Offset+off); err != nil {
							panic(err)
						}
						if bytes.Equal(got, want) {
							healed = true
							break
						}
						chk.CountDetected() // the rewrite itself was torn
					}
					if healed {
						chk.CountRepaired()
					} else {
						chk.CountUnrepaired()
					}
				} else {
					chk.CountUnrepaired()
				}
			}
			off += n
		}
		putStage(rb)
		pos += e.Length
	}
}
