package integrity

import (
	"strings"
	"testing"

	"mcio/internal/obs"
	"mcio/internal/pfs"
)

func TestDigestSensitivity(t *testing.T) {
	c := NewChecker(Config{Seed: 42})
	data := []byte("collective i/o moves these bytes")
	base := c.Digest(1024, data)

	if got := c.Digest(1024, data); got != base {
		t.Fatalf("digest not deterministic: %x then %x", base, got)
	}
	// A different offset with identical bytes must change the digest:
	// misdirected writes are corruption too.
	if got := c.Digest(1032, data); got == base {
		t.Fatalf("digest ignores the offset: %x at both 1024 and 1032", got)
	}
	// A different seed must change the digest.
	if got := NewChecker(Config{Seed: 43}).Digest(1024, data); got == base {
		t.Fatalf("digest ignores the seed: %x under seeds 42 and 43", got)
	}
	// Any single bit flip must change the digest.
	for bit := 0; bit < len(data)*8; bit += 7 {
		mut := append([]byte(nil), data...)
		mut[bit/8] ^= 1 << (bit % 8)
		if c.Digest(1024, mut) == base {
			t.Fatalf("bit flip at %d not reflected in digest", bit)
		}
	}
	// The nil checker digests too (unseeded) — hot-path helpers never
	// need a nil guard before hashing.
	var nilc *Checker
	if a, b := nilc.Digest(0, data), nilc.Digest(0, data); a != b {
		t.Fatalf("nil-checker digest not deterministic")
	}
}

func TestStampVerifyRoundTrip(t *testing.T) {
	c := NewChecker(Config{Seed: 7})
	want := []pfs.Extent{{Offset: 0, Length: 10}, {Offset: 64, Length: 22}}
	chunk := make([]byte, 32)
	for i := range chunk {
		chunk[i] = byte(i * 3)
	}

	sums := c.Stamp(want, chunk)
	if len(sums) != 2 {
		t.Fatalf("stamped %d sums, want 2", len(sums))
	}
	if sums[1].Offset != 64 || sums[1].Length != 22 {
		t.Fatalf("sum geometry %d/+%d, want 64/+22", sums[1].Offset, sums[1].Length)
	}
	if err := c.Verify(want, chunk, sums); err != nil {
		t.Fatalf("clean chunk failed verification: %v", err)
	}

	// One flipped bit anywhere in the chunk must fail verification.
	for _, pos := range []int{0, 9, 10, 31} {
		mut := append([]byte(nil), chunk...)
		mut[pos] ^= 0x10
		if err := c.Verify(want, mut, sums); err == nil {
			t.Fatalf("flip at byte %d passed verification", pos)
		}
	}
	// Shifted geometry must fail even with bit-identical bytes.
	shifted := []pfs.Extent{{Offset: 8, Length: 10}, {Offset: 64, Length: 22}}
	if err := c.Verify(shifted, chunk, sums); err == nil {
		t.Fatal("shifted extent geometry passed verification")
	}
	// Wrong sum count must fail.
	if err := c.Verify(want, chunk, sums[:1]); err == nil {
		t.Fatal("truncated sums list passed verification")
	}

	rep := c.Report()
	if rep.Stamped != 2 {
		t.Fatalf("Stamped = %d, want 2", rep.Stamped)
	}
	// 1 clean + 4 flips + 1 shifted + 1 truncated = 7 Verify calls; the
	// clean one and the six failures all count verified extents, and each
	// failure counts one detection.
	if rep.Detected != 6 {
		t.Fatalf("Detected = %d, want 6", rep.Detected)
	}
}

func TestStampFramingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Stamp absorbed a framing mismatch without panicking")
		}
	}()
	c := NewChecker(Config{})
	c.Stamp([]pfs.Extent{{Offset: 0, Length: 4}}, make([]byte, 8))
}

func TestEncodeDecodeSums(t *testing.T) {
	in := []Sum{
		{Offset: 0, Length: 1, Digest: 0xdeadbeefcafe},
		{Offset: 1 << 40, Length: 1 << 20, Digest: ^uint64(0)},
	}
	enc := EncodeSums(in)
	if len(enc) != 48 {
		t.Fatalf("encoded %d bytes, want 48", len(enc))
	}
	out, err := DecodeSums(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("sum %d round-tripped as %+v, want %+v", i, out[i], in[i])
		}
	}
	if _, err := DecodeSums(enc[:23]); err == nil {
		t.Fatal("truncated sums message decoded without error")
	}
	if got, err := DecodeSums(nil); err != nil || len(got) != 0 {
		t.Fatalf("empty sums message: %v, %d sums", err, len(got))
	}
}

func TestCountersAndObserver(t *testing.T) {
	o := obs.New()
	c := NewChecker(Config{Repair: true})
	c.SetObserver(o)
	if !c.Repair() {
		t.Fatal("policy lost: repair off")
	}

	want := []pfs.Extent{{Offset: 0, Length: 8}}
	chunk := make([]byte, 8)
	sums := c.Stamp(want, chunk)
	chunk[3] ^= 1
	if err := c.Verify(want, chunk, sums); err == nil {
		t.Fatal("corrupted chunk passed")
	}
	chunk[3] ^= 1
	if !c.Recheck(want, chunk, sums) {
		t.Fatal("healed chunk failed recheck")
	}
	c.CountRepaired()
	c.CountRewritten(64)

	rep := c.Report()
	if rep.Detected != 1 || rep.Repaired != 1 || rep.RewrittenBytes != 64 {
		t.Fatalf("report %+v, want 1 detected / 1 repaired / 64 rewritten", rep)
	}
	if got := o.Counter("integrity.corruptions_detected").Value(); got != 1 {
		t.Fatalf("observer detected counter = %d, want 1", got)
	}
	if got := o.Counter("integrity.bytes_rewritten").Value(); got != 64 {
		t.Fatalf("observer rewritten counter = %d, want 64", got)
	}
	if s := rep.String(); !strings.Contains(s, "detected 1") {
		t.Fatalf("report string %q missing detection count", s)
	}
}

func TestNilCheckerIsInert(t *testing.T) {
	var c *Checker
	if c.Enabled() || c.Repair() {
		t.Fatal("nil checker claims capabilities")
	}
	if sums := c.Stamp([]pfs.Extent{{Offset: 0, Length: 4}}, make([]byte, 4)); sums != nil {
		t.Fatalf("nil checker stamped %d sums", len(sums))
	}
	if err := c.Verify(nil, nil, nil); err != nil {
		t.Fatalf("nil checker verification failed: %v", err)
	}
	if !c.Recheck(nil, []byte{1}, nil) {
		t.Fatal("nil checker recheck failed")
	}
	c.CountDetected()
	c.CountRepaired()
	c.CountUnrepaired()
	c.CountRewritten(10)
	c.SetObserver(obs.New())
	if rep := c.Report(); rep != (Report{}) {
		t.Fatalf("nil checker report %+v, want zero", rep)
	}
}
