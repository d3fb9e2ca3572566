package health

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzHealthDetector feeds random latency series into the suspicion
// detector and asserts the structural properties every caller relies
// on: scores stay finite whatever the input, sustained degradation
// drives the score monotonically up (and eventually to suspicion), and
// sustained health drives it monotonically down (and eventually clear).
func FuzzHealthDetector(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xaa, 0x55})
	f.Add(make([]byte, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDetector()

		// Phase 0: arbitrary samples derived from the fuzz input must
		// never produce a non-finite score — including zeros, huge
		// values and denormals.
		for i := 0; i+8 <= len(data); i += 8 {
			bits := binary.LittleEndian.Uint64(data[i:])
			v := math.Float64frombits(bits)
			d.Observe("fuzz", 0, v)
			if s := d.Score("fuzz", 0); math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatalf("non-finite score %v after sample %v", s, v)
			}
		}

		// Phases 1-3 run on a fresh entity with a baseline and a
		// degradation level derived from the input, so the property is
		// checked across a family of scales, not one magic number.
		base := 0.5
		degr := 3.0
		if len(data) > 0 {
			base = 0.5 + float64(data[0])/128.0 // [0.5, 2.5)
		}
		if len(data) > 1 {
			degr = 2.5 + float64(data[1])/64.0 // [2.5, 6.5)× baseline
		}

		// Phase 1: healthy baseline.
		for i := 0; i < 40; i++ {
			d.Observe("fuzz", 1, base)
			if s := d.Score("fuzz", 1); math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatalf("non-finite score %v during warmup", s)
			}
		}
		if d.Suspected("fuzz", 1) {
			t.Fatal("constant healthy signal suspected")
		}

		// Phase 2: sustained degradation — the score must be monotone
		// non-decreasing and end suspected.
		prev := d.Score("fuzz", 1)
		for i := 0; i < 60; i++ {
			d.Observe("fuzz", 1, base*degr)
			s := d.Score("fuzz", 1)
			if math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatalf("non-finite score %v under degradation", s)
			}
			if s < prev-1e-9 {
				t.Fatalf("score fell under sustained degradation: %v -> %v at step %d", prev, s, i)
			}
			prev = s
		}
		if !d.Suspected("fuzz", 1) {
			t.Fatalf("sustained %.2f× degradation not suspected (score %v)", degr, prev)
		}

		// Phase 3: sustained health — the score must be monotone
		// non-increasing and suspicion must clear.
		prev = d.Score("fuzz", 1)
		for i := 0; i < 80; i++ {
			d.Observe("fuzz", 1, base)
			s := d.Score("fuzz", 1)
			if math.IsNaN(s) || math.IsInf(s, 0) {
				t.Fatalf("non-finite score %v during recovery", s)
			}
			if s > prev+1e-9 {
				t.Fatalf("score rose under sustained health: %v -> %v at step %d", prev, s, i)
			}
			prev = s
		}
		if d.Suspected("fuzz", 1) {
			t.Fatalf("sustained health did not clear suspicion (score %v)", prev)
		}
	})
}
