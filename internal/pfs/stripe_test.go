package pfs

import "testing"

// Every file stripes round-robin over all targets from target 0.
func TestWriteHonorsLayout(t *testing.T) {
	fs := testFS(t, 8, 16)
	f := fs.Open("m")
	// 64 bytes = stripes 0..3 → targets 0..3, one unit each.
	f.WriteAt(make([]byte, 64), 0)
	w := fs.Stats().Written()
	for target, bytes := range w {
		want := int64(0)
		if target < 4 {
			want = 16
		}
		if bytes != want {
			t.Fatalf("per-target bytes = %v", w)
		}
	}
}

// Stripe units past the last target wrap back to target 0, and a write
// that starts mid-unit splits at the unit boundary.
func TestWriteLayoutWraps(t *testing.T) {
	fs := testFS(t, 4, 16)
	f := fs.Open("w")
	// [40, 120): units 2..7 → targets 2,3,0,1,2,3; the first unit is
	// entered 8 bytes in.
	f.WriteAt(make([]byte, 80), 40)
	if w := fs.Stats().Written(); w[0] != 16 || w[1] != 16 || w[2] != 8+16 || w[3] != 16+8 {
		t.Fatalf("per-target bytes = %v", w)
	}
}

func TestTargetStats(t *testing.T) {
	fs := testFS(t, 4, 16)
	f := fs.Open("s")
	buf := make([]byte, 64) // 4 stripes over 4 targets
	f.WriteAt(buf, 0)
	f.ReadAt(buf[:32], 0)
	stats := fs.Stats()
	w := stats.Written()
	for i := 0; i < 4; i++ {
		if w[i] != 16 {
			t.Fatalf("written[%d] = %d, want 16", i, w[i])
		}
	}
}
