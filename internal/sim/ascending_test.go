package sim

import (
	"slices"
	"testing"

	"mcio/internal/stats"
)

// ascendingIDs sorts a round's touched IDs by sorting or by scanning
// the table's flags; both give the sorted list.
func TestAscendingIDs(t *testing.T) {
	r := stats.NewRNG(5)
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(200)
		touched := make([]bool, n)
		var ids []int
		for k := r.Intn(n + 1); k > 0; k-- {
			if id := r.Intn(n); !touched[id] {
				touched[id] = true
				ids = append(ids, id)
			}
		}
		want := slices.Clone(ids)
		slices.Sort(want)
		ascendingIDs(ids, n, func(id int) bool { return touched[id] })
		if !slices.Equal(ids, want) {
			t.Fatalf("ascendingIDs = %v, want %v", ids, want)
		}
	}
}
