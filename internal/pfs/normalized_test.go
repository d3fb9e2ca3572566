package pfs

import (
	"reflect"
	"testing"
)

func TestIsNormalized(t *testing.T) {
	cases := []struct {
		name string
		exts []Extent
		want bool
	}{
		{"nil", nil, true},
		{"empty", []Extent{}, true},
		{"single", []Extent{{Offset: 0, Length: 10}}, true},
		{"zero length", []Extent{{Offset: 0, Length: 0}}, false},
		{"negative length", []Extent{{Offset: 0, Length: -5}}, false},
		{"ascending with gaps", []Extent{{Offset: 0, Length: 10}, {Offset: 20, Length: 5}}, true},
		{"adjacent unmerged", []Extent{{Offset: 0, Length: 10}, {Offset: 10, Length: 5}}, false},
		{"overlapping", []Extent{{Offset: 0, Length: 10}, {Offset: 5, Length: 10}}, false},
		{"descending", []Extent{{Offset: 20, Length: 5}, {Offset: 0, Length: 10}}, false},
		{"empty in the middle", []Extent{{Offset: 0, Length: 10}, {Offset: 15, Length: 0}, {Offset: 20, Length: 5}}, false},
	}
	for _, c := range cases {
		if got := IsNormalized(c.exts); got != c.want {
			t.Errorf("%s: IsNormalized(%v) = %v, want %v", c.name, c.exts, got, c.want)
		}
	}
}

// IsNormalized must agree with NormalizeExtents: its output is always
// normalized, and an input it accepts is already canonical (normalizing
// it changes nothing).
func TestIsNormalizedAgreesWithNormalize(t *testing.T) {
	inputs := [][]Extent{
		nil,
		{{Offset: 3, Length: 4}},
		{{Offset: 0, Length: 10}, {Offset: 10, Length: 5}},
		{{Offset: 50, Length: 10}, {Offset: 0, Length: 10}, {Offset: 5, Length: 20}},
		{{Offset: 0, Length: 0}, {Offset: 7, Length: 3}},
	}
	for _, exts := range inputs {
		norm := NormalizeExtents(exts)
		if !IsNormalized(norm) {
			t.Fatalf("NormalizeExtents(%v) = %v is not IsNormalized", exts, norm)
		}
		if IsNormalized(exts) && !reflect.DeepEqual(NormalizeExtents(exts), exts) {
			t.Fatalf("IsNormalized accepted %v but normalizing changes it", exts)
		}
	}
}

// Normalized returns the input slice itself (no copy) when it is already
// canonical — the read-only fast path — and a normalized copy otherwise.
func TestNormalizedAliasesCanonicalInput(t *testing.T) {
	canonical := []Extent{{Offset: 0, Length: 10}, {Offset: 20, Length: 5}}
	if got := Normalized(canonical); &got[0] != &canonical[0] {
		t.Fatal("Normalized copied an already-canonical slice")
	}
	messy := []Extent{{Offset: 20, Length: 5}, {Offset: 0, Length: 10}}
	got := Normalized(messy)
	if !IsNormalized(got) {
		t.Fatalf("Normalized(%v) = %v not canonical", messy, got)
	}
	if &got[0] == &messy[0] {
		t.Fatal("Normalized returned the messy slice unchanged")
	}
	// And the argument is untouched.
	if !reflect.DeepEqual(messy, []Extent{{Offset: 20, Length: 5}, {Offset: 0, Length: 10}}) {
		t.Fatal("Normalized mutated its argument")
	}
}
