package collio_test

import (
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/pfs"
)

// execFixture builds a planned interleaved workload and its write-side
// rank buffers — the data-movement hot path the staging-buffer pool
// serves.
func execFixture(b *testing.B) (*collio.Context, *collio.Plan, *collio.RequestSet, [][]byte, *pfs.File) {
	b.Helper()
	params := collio.DefaultParams(4096)
	params.MsgGroup = 1 << 16
	params.MsgInd = 1 << 14
	params.MemMin = 1024
	ctx := buildContext(b, 12, 3, params, nil)
	const unit = 2048
	reqs := make([]collio.RankRequest, 12)
	for r := range reqs {
		reqs[r].Rank = r
		for seg := 0; seg < 8; seg++ {
			reqs[r].Extents = append(reqs[r].Extents,
				pfs.Extent{Offset: int64(seg*12+r) * unit, Length: unit})
		}
	}
	rs := collio.NewRequestSet(reqs)
	plan, err := core.New().PlanSet(ctx, rs)
	if err != nil {
		b.Fatal(err)
	}
	if err := plan.ValidateSet(rs); err != nil {
		b.Fatal(err)
	}
	bufs := make([][]byte, 12)
	for r := range bufs {
		bufs[r] = make([]byte, pfs.TotalBytes(rs.List(r)))
		fillPattern(r, bufs[r])
	}
	fsys, err := pfs.NewFileSystem(ctx.FS)
	if err != nil {
		b.Fatal(err)
	}
	return ctx, plan, rs, bufs, fsys.Open("bench")
}

func BenchmarkExecWrite(b *testing.B) {
	ctx, plan, rs, bufs, file := execFixture(b)
	b.SetBytes(plan.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := collio.Exec(ctx, plan, rs, bufs, file, collio.Write); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecRead(b *testing.B) {
	ctx, plan, rs, bufs, file := execFixture(b)
	if err := collio.Exec(ctx, plan, rs, bufs, file, collio.Write); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(plan.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := collio.Exec(ctx, plan, rs, bufs, file, collio.Read); err != nil {
			b.Fatal(err)
		}
	}
}
