package collio

import (
	"errors"
	"fmt"
	"testing"

	"mcio/internal/pfs"
	"mcio/internal/stats"
)

// sortValidate is Plan.Validate as it was before it streamed: concatenate
// every request and every domain, sort both with NormalizeExtents, and
// compare. It is the oracle the streaming check is tested against.
func sortValidate(p *Plan, reqs []RankRequest) error {
	var all []pfs.Extent
	for _, r := range reqs {
		all = append(all, r.Extents...)
	}
	want := pfs.NormalizeExtents(all)
	var got []pfs.Extent
	var prevEnd int64 = -1
	for i, d := range p.Domains {
		if len(d.Extents) == 0 || d.Bytes == 0 {
			return fmt.Errorf("collio: plan %s: domain %d is empty", p.Strategy, i)
		}
		if d.Bytes != pfs.TotalBytes(d.Extents) {
			return fmt.Errorf("collio: plan %s: domain %d bytes %d != extents %d",
				p.Strategy, i, d.Bytes, pfs.TotalBytes(d.Extents))
		}
		if d.BufferBytes <= 0 {
			return fmt.Errorf("collio: plan %s: domain %d has no buffer", p.Strategy, i)
		}
		if d.Extents[0].Offset <= prevEnd {
			return fmt.Errorf("collio: plan %s: domain %d overlaps or is out of order", p.Strategy, i)
		}
		prevEnd = d.Extents[len(d.Extents)-1].End() - 1
		if d.Aggregator < 0 {
			return fmt.Errorf("collio: plan %s: domain %d has no aggregator", p.Strategy, i)
		}
		if d.Group < 0 || d.Group >= p.Groups {
			return fmt.Errorf("collio: plan %s: domain %d group %d outside [0,%d)",
				p.Strategy, i, d.Group, p.Groups)
		}
		got = append(got, d.Extents...)
	}
	gotNorm := pfs.NormalizeExtents(got)
	if len(gotNorm) != len(want) {
		return fmt.Errorf("collio: plan %s: domains cover %d extents, requests need %d",
			p.Strategy, len(gotNorm), len(want))
	}
	for i := range want {
		if gotNorm[i] != want[i] {
			return fmt.Errorf("collio: plan %s: coverage mismatch at extent %d: %v != %v",
				p.Strategy, i, gotNorm[i], want[i])
		}
	}
	return nil
}

var errNewRule = errors.New("rejected by a rule the sort-based check lacks")

// oracleValidate is sortValidate plus the two rules Validate added: no
// negative extent lengths (sortValidate panics on them) and canonical
// domains.
func oracleValidate(p *Plan, reqs []RankRequest) error {
	for _, r := range reqs {
		for _, e := range r.Extents {
			if e.Length < 0 {
				return errNewRule
			}
		}
	}
	for _, d := range p.Domains {
		if len(d.Extents) > 0 && d.Bytes != 0 && !pfs.IsNormalized(d.Extents) {
			return errNewRule
		}
	}
	return sortValidate(p, reqs)
}

// randomPlan builds a valid plan over random, overlapping, sometimes
// unsorted requests: the union is cut into domains at random data
// offsets, and a domain's span may hold holes.
func randomPlan(r *stats.RNG) (*Plan, []RankRequest) {
	reqs := make([]RankRequest, 1+r.Intn(6))
	for i := range reqs {
		var exts []pfs.Extent
		for k, n := 0, r.Intn(6); k < n; k++ {
			exts = append(exts, pfs.Extent{Offset: r.Int63n(200), Length: r.Int63n(20)})
		}
		if r.Intn(2) == 0 {
			exts = pfs.NormalizeExtents(exts)
		}
		reqs[i] = RankRequest{Rank: i, Extents: exts}
	}
	var all []pfs.Extent
	for _, q := range reqs {
		all = append(all, q.Extents...)
	}
	union := pfs.NormalizeExtents(all)
	groups := 1 + r.Intn(3)
	plan := &Plan{Strategy: "random", Groups: groups}
	total := pfs.TotalBytes(union)
	for off := int64(0); off < total; {
		n := 1 + r.Int63n(total-off)
		exts := pfs.SliceData(union, off, n)
		plan.Domains = append(plan.Domains, Domain{
			Extents:     exts,
			Bytes:       n,
			Group:       r.Intn(groups),
			Aggregator:  r.Intn(len(reqs)),
			BufferBytes: 1 + r.Int63n(32),
		})
		off += n
	}
	return plan, reqs
}

// mutate applies one random defect, or none, to a plan or its requests.
func mutate(r *stats.RNG, p *Plan, reqs []RankRequest) {
	pick := func() *Domain {
		if len(p.Domains) == 0 {
			return nil
		}
		return &p.Domains[r.Intn(len(p.Domains))]
	}
	ext := func(d *Domain) *pfs.Extent { return &d.Extents[r.Intn(len(d.Extents))] }
	for i := range p.Domains {
		p.Domains[i].Extents = append([]pfs.Extent(nil), p.Domains[i].Extents...)
	}
	d := pick()
	switch r.Intn(16) {
	case 0: // none
	case 1:
		if d != nil {
			d.Bytes += 1 + r.Int63n(5)
		}
	case 2:
		if d != nil {
			e := ext(d)
			e.Offset += r.Int63n(7) - 3
		}
	case 3:
		if d != nil {
			e := ext(d)
			e.Length += r.Int63n(7) - 3
			d.Bytes = pfs.TotalBytes(d.Extents)
		}
	case 4: // reverse a domain's extents
		if d != nil && len(d.Extents) > 1 {
			for i, j := 0, len(d.Extents)-1; i < j; i, j = i+1, j-1 {
				d.Extents[i], d.Extents[j] = d.Extents[j], d.Extents[i]
			}
		}
	case 5: // split an extent into two adjacent pieces
		if d != nil {
			i := r.Intn(len(d.Extents))
			if e := d.Extents[i]; e.Length > 1 {
				h := 1 + r.Int63n(e.Length-1)
				rest := append([]pfs.Extent{{Offset: e.Offset, Length: h}, {Offset: e.Offset + h, Length: e.Length - h}}, d.Extents[i+1:]...)
				d.Extents = append(d.Extents[:i], rest...)
			}
		}
	case 6: // insert a zero-length extent
		if d != nil {
			d.Extents = append(d.Extents, pfs.Extent{Offset: d.Extents[len(d.Extents)-1].End() + 2})
		}
	case 7: // negative domain extent that keeps the byte count
		if d != nil {
			end := d.Extents[len(d.Extents)-1].End()
			d.Extents = append(d.Extents, pfs.Extent{Offset: end + 5, Length: 3}, pfs.Extent{Offset: end + 20, Length: -3})
		}
	case 8: // negative request extent
		q := &reqs[r.Intn(len(reqs))]
		q.Extents = append(append([]pfs.Extent(nil), q.Extents...), pfs.Extent{Offset: r.Int63n(200), Length: -1 - r.Int63n(4)})
	case 9: // swap two domains
		if len(p.Domains) > 1 {
			i, j := r.Intn(len(p.Domains)), r.Intn(len(p.Domains))
			p.Domains[i], p.Domains[j] = p.Domains[j], p.Domains[i]
		}
	case 10: // drop a domain
		if d != nil {
			i := r.Intn(len(p.Domains))
			p.Domains = append(p.Domains[:i], p.Domains[i+1:]...)
		}
	case 11: // duplicate a domain
		if d != nil {
			p.Domains = append(p.Domains, *d)
		}
	case 12:
		if d != nil {
			d.Aggregator = -1
		}
	case 13:
		if d != nil {
			d.Group = p.Groups + r.Intn(2)
		}
	case 14:
		if d != nil {
			d.BufferBytes = 0
		}
	case 15: // request an uncovered byte range, or merge it with covered ones
		q := &reqs[r.Intn(len(reqs))]
		q.Extents = append(append([]pfs.Extent(nil), q.Extents...), pfs.Extent{Offset: r.Int63n(240), Length: r.Int63n(10)})
	}
}

// On random plans with random defects the streaming Validate accepts and
// rejects exactly as the sort-based check, with the same message whenever
// neither new rule applies.
func TestValidateMatchesSortOracle(t *testing.T) {
	r := stats.NewRNG(14)
	accepted, rejected := 0, 0
	for trial := 0; trial < 5000; trial++ {
		plan, reqs := randomPlan(r)
		mutate(r, plan, reqs)
		want := oracleValidate(plan, reqs)
		got := plan.Validate(reqs)
		if (got == nil) != (want == nil) {
			t.Fatalf("trial %d: Validate = %v, oracle = %v\nplan %+v\nreqs %+v", trial, got, want, plan.Domains, reqs)
		}
		if want != nil && want != errNewRule && got.Error() != want.Error() {
			t.Fatalf("trial %d: Validate says %q, oracle %q", trial, got, want)
		}
		if got == nil {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted < 500 || rejected < 500 {
		t.Fatalf("unbalanced trials: %d accepted, %d rejected", accepted, rejected)
	}
}
