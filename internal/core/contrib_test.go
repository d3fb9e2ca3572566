package core

import (
	"reflect"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/pfs"
	"mcio/internal/stats"
)

// Placement computes each leaf's contributions once and merges a
// remerged leaf's into its absorber's. After every remerge the lists
// must equal contributions computed afresh over the current leaves.
func TestRemergedContributionsMatchFresh(t *testing.T) {
	r := stats.NewRNG(11)
	for trial := 0; trial < 300; trial++ {
		reqs := make([]collio.RankRequest, 1+r.Intn(10))
		for i := range reqs {
			var exts []pfs.Extent
			for k, n := 0, r.Intn(6); k < n; k++ {
				exts = append(exts, pfs.Extent{Offset: r.Int63n(400), Length: 1 + r.Int63n(40)})
			}
			reqs[i] = collio.RankRequest{Rank: i, Extents: exts}
		}
		rs := collio.NewRequestSet(reqs)
		g := Group{Extents: rs.Union()}
		for i := range reqs {
			if len(rs.List(i)) > 0 {
				g.Ranks = append(g.Ranks, i)
			}
		}
		tree, err := BuildTree(g.Extents, 1+r.Int63n(60))
		if err != nil {
			t.Fatal(err)
		}
		var sc contribScratch
		sc.contributions(g, rs, tree.Leaves())
		for {
			leaves := tree.Leaves()
			var fresh contribScratch
			fresh.contributions(g, rs, leaves)
			for _, l := range leaves {
				if got, want := sc.lists[l], fresh.lists[l]; !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Fatalf("trial %d: leaf %v: contributions %v, want %v", trial, l.Extents, got, want)
				}
			}
			if len(sc.lists) != len(leaves) {
				t.Fatalf("trial %d: %d lists for %d leaves", trial, len(sc.lists), len(leaves))
			}
			if len(leaves) < 2 {
				break
			}
			victim := leaves[r.Intn(len(leaves))]
			absorber, err := tree.Remerge(victim)
			if err != nil {
				t.Fatal(err)
			}
			sc.remerge(absorber, victim)
		}
	}
}
