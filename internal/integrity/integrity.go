// Package integrity is the end-to-end data-integrity layer of the
// collective-I/O stack. Every byte a collective operation moves passes
// through several hops — producer rank, shuffle message, aggregator
// staging buffer, striped file — and a silent corruption at any hop
// (a flipped bit on the wire, a torn write on a storage target) would
// otherwise surface only as wrong answers long after the operation
// "succeeded".
//
// The defence is a seeded, offset-mixed checksum stamped per extent at
// the producer and re-verified at every subsequent hop:
//
//   - at aggregator gather (after the shuffle), against the sums the
//     producer stamped on the chunk it shipped;
//   - after PFS write-back, by reading the file domain back and
//     comparing against the sums of the staging buffer that was written;
//   - on collective reads, at the consumer after the scatter message.
//
// Mixing the file offset into each extent's sum means a byte that is
// bit-exact but lands at the wrong offset still fails verification —
// misdirected writes are corruption too.
//
// A Checker carries the seed, the repair policy and the campaign
// counters. It is safe for concurrent use: the executor runs one
// goroutine per rank, and aggregators verify concurrently. All methods
// are nil-safe so the fault-free hot path (no checker installed) pays
// nothing.
package integrity

import (
	"fmt"
	"sync/atomic"

	"mcio/internal/obs"
	"mcio/internal/obs/timeline"
	"mcio/internal/pfs"
)

// Sum is the checksum of one extent's bytes at a known file offset.
type Sum struct {
	Offset int64
	Length int64
	Digest uint64
}

// Config declares a checker's policy.
type Config struct {
	// Seed perturbs every digest so campaigns with different seeds
	// cannot mask each other's corruptions (and a buggy all-zeros
	// digest cannot pass by accident).
	Seed uint64
	// Repair enables the detect→re-request→rewrite path: a chunk that
	// fails verification is re-requested from its producer, and a file
	// domain that fails read-back verification is rewritten. With
	// Repair false the checker only detects and counts.
	Repair bool
}

// MaxRepairs bounds repair attempts per chunk or domain. It is well
// above any plausible per-rank pileup of pending bit flips: each resend
// consumes one more pending corruption event, so a budget larger than
// the pileup guarantees a repair chain ends clean.
const MaxRepairs = 32

// Checker stamps and verifies extent checksums and accounts the
// campaign: how many sums were stamped, verified, how many corruptions
// were detected, repaired, or left unrepaired, and how many bytes the
// rewrite path re-issued to the file system.
type Checker struct {
	cfg Config

	stamped    atomic.Int64
	verified   atomic.Int64
	detected   atomic.Int64
	repaired   atomic.Int64
	unrepaired atomic.Int64
	rewritten  atomic.Int64 // bytes re-issued by domain rewrites

	// Pre-resolved obs counters; nil when unobserved.
	cStamped    *obs.Counter
	cVerified   *obs.Counter
	cDetected   *obs.Counter
	cRepaired   *obs.Counter
	cUnrepaired *obs.Counter
	cRewritten  *obs.Counter
}

// NewChecker builds a checker for the given policy.
func NewChecker(cfg Config) *Checker {
	return &Checker{cfg: cfg}
}

// Enabled reports whether verification is active; an executor given a
// nil checker takes the exact legacy byte path.
func (c *Checker) Enabled() bool { return c != nil }

// Repair reports whether the detect→re-request→rewrite path is on.
func (c *Checker) Repair() bool { return c != nil && c.cfg.Repair }

// SetObserver attaches metrics: integrity.sums_stamped,
// integrity.sums_verified, integrity.corruptions_detected,
// integrity.corruptions_repaired, integrity.corruptions_unrepaired and
// integrity.bytes_rewritten. Nil detaches. Call before the operation.
func (c *Checker) SetObserver(o *obs.Observer) {
	if c == nil {
		return
	}
	if o == nil || o.Metrics == nil {
		c.cStamped, c.cVerified, c.cDetected = nil, nil, nil
		c.cRepaired, c.cUnrepaired, c.cRewritten = nil, nil, nil
		return
	}
	c.cStamped = o.Counter("integrity.sums_stamped")
	c.cVerified = o.Counter("integrity.sums_verified")
	c.cDetected = o.Counter("integrity.corruptions_detected")
	c.cRepaired = o.Counter("integrity.corruptions_repaired")
	c.cUnrepaired = o.Counter("integrity.corruptions_unrepaired")
	c.cRewritten = o.Counter("integrity.bytes_rewritten")
}

// fnv offsets/primes (FNV-1a, 64 bit).
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// Digest computes the seeded checksum of p as the bytes at file offset
// off. The offset (and the seed) participate in the hash, so identical
// bytes at a different offset produce a different digest.
func (c *Checker) Digest(off int64, p []byte) uint64 {
	var h uint64 = fnvOffset
	if c != nil {
		h ^= c.cfg.Seed
		h *= fnvPrime
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(off >> (8 * i)))
		h *= fnvPrime
	}
	for _, b := range p {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// Stamp computes one Sum per extent of want over chunk, where chunk is
// the concatenation of the want extents' bytes in file order (the wire
// format of a shuffle message). Nil-safe: a nil checker stamps nothing.
func (c *Checker) Stamp(want []pfs.Extent, chunk []byte) []Sum {
	if c == nil {
		return nil
	}
	sums := make([]Sum, len(want))
	var pos int64
	for i, w := range want {
		sums[i] = Sum{Offset: w.Offset, Length: w.Length,
			Digest: c.Digest(w.Offset, chunk[pos:pos+w.Length])}
		pos += w.Length
	}
	c.stamped.Add(int64(len(sums)))
	if c.cStamped != nil {
		c.cStamped.Add(int64(len(sums)))
	}
	if pos != int64(len(chunk)) {
		// Framing bugs must not be silently absorbed into a digest.
		panic(fmt.Sprintf("integrity: stamped %d of %d chunk bytes", pos, len(chunk)))
	}
	return sums
}

// Verify re-computes the sums of chunk against the stamped sums and
// reports the first mismatch: extent geometry that differs from the
// stamp, or a digest that no longer matches. A verification failure is
// counted as one detected corruption. Nil-safe (always passes).
func (c *Checker) Verify(want []pfs.Extent, chunk []byte, sums []Sum) error {
	if c == nil {
		return nil
	}
	err := c.check(want, chunk, sums)
	c.verified.Add(int64(len(want)))
	if c.cVerified != nil {
		c.cVerified.Add(int64(len(want)))
	}
	if err != nil {
		c.CountDetected()
	}
	return err
}

// check is Verify without the counters (shared with re-verification
// inside repair loops, which must not double-count detections).
func (c *Checker) check(want []pfs.Extent, chunk []byte, sums []Sum) error {
	if len(sums) != len(want) {
		return fmt.Errorf("integrity: %d sums for %d extents", len(sums), len(want))
	}
	var pos int64
	for i, w := range want {
		s := sums[i]
		if s.Offset != w.Offset || s.Length != w.Length {
			return fmt.Errorf("integrity: extent %d stamped as [%d,+%d), expected [%d,+%d)",
				i, s.Offset, s.Length, w.Offset, w.Length)
		}
		if got := c.Digest(w.Offset, chunk[pos:pos+w.Length]); got != s.Digest {
			return fmt.Errorf("integrity: extent %d at offset %d (%d bytes): digest %016x != stamped %016x",
				i, w.Offset, w.Length, got, s.Digest)
		}
		pos += w.Length
	}
	if pos != int64(len(chunk)) {
		return fmt.Errorf("integrity: chunk is %d bytes, extents cover %d", len(chunk), pos)
	}
	return nil
}

// Recheck re-verifies after a repair attempt without counting a fresh
// detection; it reports whether the chunk is now clean.
func (c *Checker) Recheck(want []pfs.Extent, chunk []byte, sums []Sum) bool {
	return c == nil || c.check(want, chunk, sums) == nil
}

// CountDetected records one detected corruption outside Verify (the
// write-back read-verify path compares digests directly).
func (c *Checker) CountDetected() {
	if c == nil {
		return
	}
	c.detected.Add(1)
	if c.cDetected != nil {
		c.cDetected.Inc()
	}
}

// CountRepaired records one corruption healed by re-request or rewrite.
func (c *Checker) CountRepaired() {
	if c == nil {
		return
	}
	c.repaired.Add(1)
	if c.cRepaired != nil {
		c.cRepaired.Inc()
	}
}

// CountUnrepaired records a corruption that survived the repair budget
// (or was detected with repair disabled).
func (c *Checker) CountUnrepaired() {
	if c == nil {
		return
	}
	c.unrepaired.Add(1)
	if c.cUnrepaired != nil {
		c.cUnrepaired.Inc()
	}
}

// CountRewritten records bytes re-issued to the file system by the
// domain rewrite path, for bytes-written conservation accounting.
func (c *Checker) CountRewritten(n int64) {
	if c == nil {
		return
	}
	c.rewritten.Add(n)
	if c.cRewritten != nil {
		c.cRewritten.Add(n)
	}
}

// Report is a point-in-time snapshot of a checker's counters.
type Report struct {
	Stamped        int64 // extent sums stamped at producers
	Verified       int64 // extent sums re-verified at consumers
	Detected       int64 // corruptions detected (any hop)
	Repaired       int64 // corruptions healed by re-request or rewrite
	Unrepaired     int64 // detections that exhausted (or skipped) repair
	RewrittenBytes int64 // bytes re-issued by domain rewrites
}

// Report snapshots the counters. Nil-safe (zero report).
func (c *Checker) Report() Report {
	if c == nil {
		return Report{}
	}
	return Report{
		Stamped:        c.stamped.Load(),
		Verified:       c.verified.Load(),
		Detected:       c.detected.Load(),
		Repaired:       c.repaired.Load(),
		Unrepaired:     c.unrepaired.Load(),
		RewrittenBytes: c.rewritten.Load(),
	}
}

// String renders the report for campaign summaries.
func (r Report) String() string {
	return fmt.Sprintf("stamped %d, verified %d, detected %d, repaired %d, unrepaired %d, rewritten %d B",
		r.Stamped, r.Verified, r.Detected, r.Repaired, r.Unrepaired, r.RewrittenBytes)
}

// JournalInto records the report as one unstamped repair event in the
// journal. The checker's counters move concurrently across execution
// goroutines, so per-incident timestamps would not be deterministic —
// the end-of-run summary is. Quiet reports (nothing detected) journal
// nothing.
func (r Report) JournalInto(j *timeline.Journal, entity string) {
	if r.Detected == 0 && r.Repaired == 0 && r.Unrepaired == 0 {
		return
	}
	j.RecordSeq(timeline.EvRepair, entity, r.String())
}

// EncodeSums serializes sums for a shuffle side-channel message
// (little-endian 24-byte records).
func EncodeSums(sums []Sum) []byte {
	out := make([]byte, 24*len(sums))
	for i, s := range sums {
		putU64(out[24*i:], uint64(s.Offset))
		putU64(out[24*i+8:], uint64(s.Length))
		putU64(out[24*i+16:], s.Digest)
	}
	return out
}

// DecodeSums parses a sums message; a length that is not a whole number
// of records is an error (a truncated sums message is itself evidence
// of corruption).
func DecodeSums(p []byte) ([]Sum, error) {
	if len(p)%24 != 0 {
		return nil, fmt.Errorf("integrity: sums message of %d bytes is not a record multiple", len(p))
	}
	sums := make([]Sum, len(p)/24)
	for i := range sums {
		sums[i] = Sum{
			Offset: int64(getU64(p[24*i:])),
			Length: int64(getU64(p[24*i+8:])),
			Digest: getU64(p[24*i+16:]),
		}
	}
	return sums, nil
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
