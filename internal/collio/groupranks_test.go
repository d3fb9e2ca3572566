package collio_test

import (
	"slices"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/layoutaware"
	"mcio/internal/twophase"
)

// TestSingleGroupPlansShareRanks checks that the planners with one
// group list its members from the request set, once per set: two plans
// over one set hold the same backing array, and appending to a plan's
// list copies it and leaves the set's list as it was.
func TestSingleGroupPlansShareRanks(t *testing.T) {
	c := pricingCases(t, 0)[4] // shuffled request order with idle ranks
	rs := collio.NewRequestSet(c.reqs)
	want := slices.Clone(rs.RanksWithData())
	for _, s := range []collio.Strategy{twophase.New(), layoutaware.New()} {
		a, err := s.PlanSet(c.ctx, rs)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.PlanSet(c.ctx, rs)
		if err != nil {
			t.Fatal(err)
		}
		ga, gb := a.GroupRanks[0], b.GroupRanks[0]
		if len(ga) == 0 || &ga[0] != &gb[0] {
			t.Fatalf("%s: two plans over one set built two group lists", s.Name())
		}
		grown := append(a.GroupRanks[0], -1)
		if &grown[0] == &ga[0] {
			t.Fatalf("%s: appending to the group list wrote into the shared array", s.Name())
		}
		if got := rs.RanksWithData(); !slices.Equal(got, want) || !slices.Equal(gb, want) {
			t.Fatalf("%s: the set's list changed to %v, want %v", s.Name(), got, want)
		}
	}
}
