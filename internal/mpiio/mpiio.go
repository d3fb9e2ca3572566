// Package mpiio is the MPI-IO-style access layer of the simulator: files
// with per-rank file views, independent read/write (with optional data
// sieving), and the collective read/write entry points that dispatch to a
// pluggable collective I/O strategy — the role ROMIO's ADIO layer plays
// between the MPI-IO interface and the file system.
package mpiio

import (
	"fmt"

	"mcio/internal/collio"
	"mcio/internal/datatype"
	"mcio/internal/pfs"
	"mcio/internal/sim"
)

// File is an open file handle shared by all ranks of the context's
// topology. Like an MPI file handle, it carries one file view per rank.
type File struct {
	ctx      *collio.Context
	strategy collio.Strategy
	file     *pfs.File
	views    []datatype.View
	opt      sim.Options
}

// Open opens (creating if needed) name on fsys for collective access under
// ctx with the given strategy. All ranks start with the default
// byte-stream view.
func Open(fsys *pfs.FileSystem, name string, ctx *collio.Context, strategy collio.Strategy) (*File, error) {
	if err := ctx.Validate(); err != nil {
		return nil, err
	}
	if strategy == nil {
		return nil, fmt.Errorf("mpiio: nil strategy")
	}
	if got, want := fsys.Config().Targets, ctx.FS.Targets; got != want {
		return nil, fmt.Errorf("mpiio: context expects %d targets, file system has %d", want, got)
	}
	views := make([]datatype.View, ctx.Topo.Size())
	for i := range views {
		views[i] = datatype.ContigView()
	}
	return &File{
		ctx:      ctx,
		strategy: strategy,
		file:     fsys.Open(name),
		views:    views,
		opt:      sim.DefaultOptions(),
	}, nil
}

// Name returns the underlying file's name.
func (f *File) Name() string { return f.file.Name() }

// SetOptions replaces the cost-engine options used for pricing collective
// calls (phase overlap, contention model).
func (f *File) SetOptions(opt sim.Options) error {
	if err := opt.Validate(); err != nil {
		return err
	}
	f.opt = opt
	return nil
}

// SetView installs rank's file view, like MPI_File_set_view. Filetypes
// must have monotonically increasing displacements (an MPI requirement
// this implementation relies on: a rank's linear data stream maps to
// file offsets in increasing order).
func (f *File) SetView(rank int, v datatype.View) error {
	if rank < 0 || rank >= len(f.views) {
		return fmt.Errorf("mpiio: SetView for invalid rank %d", rank)
	}
	if v.Filetype == nil || v.Filetype.Size() <= 0 {
		return fmt.Errorf("mpiio: view filetype must have data bytes")
	}
	if v.Disp < 0 {
		return fmt.Errorf("mpiio: negative view displacement %d", v.Disp)
	}
	f.views[rank] = v
	return nil
}

// SetViewAll installs the same view on every rank.
func (f *File) SetViewAll(v datatype.View) error {
	for r := range f.views {
		if err := f.SetView(r, v); err != nil {
			return err
		}
	}
	return nil
}

// CollArgs is one rank's participation in a collective call: Buf bytes at
// data-space offset DataOff under the rank's view. A nil Buf means the
// rank participates with no data (collective calls are still collective).
type CollArgs struct {
	DataOff int64
	Buf     []byte
}

// requests resolves each rank's CollArgs through its view.
func (f *File) requests(args []CollArgs) ([]collio.RankRequest, []collio.RankData, error) {
	if len(args) != len(f.views) {
		return nil, nil, fmt.Errorf("mpiio: collective call with %d args for %d ranks",
			len(args), len(f.views))
	}
	reqs := make([]collio.RankRequest, len(args))
	data := make([]collio.RankData, len(args))
	for r, a := range args {
		reqs[r].Rank = r
		if len(a.Buf) > 0 {
			reqs[r].Extents = f.views[r].Extents(a.DataOff, int64(len(a.Buf)))
		}
		data[r] = collio.RankData{Req: reqs[r], Buf: a.Buf}
	}
	return reqs, data, nil
}

// WriteAll performs a collective write: every rank contributes its args
// entry. It really moves the bytes onto the striped file system and also
// prices the operation on the machine model, returning the cost result.
func (f *File) WriteAll(args []CollArgs) (*collio.CostResult, error) {
	return f.collective(args, collio.Write)
}

// ReadAll performs a collective read into each rank's buffer and prices
// the operation.
func (f *File) ReadAll(args []CollArgs) (*collio.CostResult, error) {
	return f.collective(args, collio.Read)
}

func (f *File) collective(args []CollArgs, op collio.Op) (*collio.CostResult, error) {
	reqs, data, err := f.requests(args)
	if err != nil {
		return nil, err
	}
	rs := collio.NewRequestSet(reqs)
	plan, err := f.strategy.PlanSet(f.ctx, rs)
	if err != nil {
		return nil, err
	}
	// The shape build validates the plan, so nothing moves under an
	// invalid one.
	sh, err := collio.BuildShapeSet(f.ctx, plan, rs)
	if err != nil {
		return nil, err
	}
	if err := collio.Exec(f.ctx, plan, data, f.file, op); err != nil {
		return nil, err
	}
	res, err := collio.CostShape(f.ctx, plan, sh, rs, []collio.Op{op}, f.opt, collio.FaultEnv{})
	if err != nil {
		return nil, err
	}
	return &res[0].CostResult, nil
}

// PlanOnly plans and prices a collective operation without moving bytes —
// the benchmark harness uses this to run the paper's full-size experiments.
func (f *File) PlanOnly(reqs []collio.RankRequest, op collio.Op) (*collio.CostResult, error) {
	rs := collio.NewRequestSet(reqs)
	plan, err := f.strategy.PlanSet(f.ctx, rs)
	if err != nil {
		return nil, err
	}
	return collio.CostSet(f.ctx, plan, rs, op, f.opt)
}

// WriteAtRank performs independent (non-collective) I/O for one rank
// through its view: each resolved extent becomes one file write, exactly
// the many-small-requests behaviour collective I/O exists to avoid.
func (f *File) WriteAtRank(rank int, dataOff int64, buf []byte) error {
	exts, err := f.resolve(rank, dataOff, buf)
	if err != nil {
		return err
	}
	var pos int64
	for _, e := range exts {
		if _, err := f.file.WriteAt(buf[pos:pos+e.Length], e.Offset); err != nil {
			return err
		}
		pos += e.Length
	}
	return nil
}

// ReadAtRank performs an independent read for one rank through its view.
func (f *File) ReadAtRank(rank int, dataOff int64, buf []byte) error {
	exts, err := f.resolve(rank, dataOff, buf)
	if err != nil {
		return err
	}
	var pos int64
	for _, e := range exts {
		if _, err := f.file.ReadAt(buf[pos:pos+e.Length], e.Offset); err != nil {
			return err
		}
		pos += e.Length
	}
	return nil
}

// SieveReadAtRank performs an independent read with data sieving: one
// large contiguous read covering the whole access span, from which the
// requested pieces are extracted — ROMIO's optimization for noncontiguous
// independent reads.
func (f *File) SieveReadAtRank(rank int, dataOff int64, buf []byte) error {
	exts, err := f.resolve(rank, dataOff, buf)
	if err != nil {
		return err
	}
	if len(exts) == 0 {
		return nil
	}
	span := pfs.Span(exts)
	sieve := make([]byte, span.Length)
	if _, err := f.file.ReadAt(sieve, span.Offset); err != nil {
		return err
	}
	var pos int64
	for _, e := range exts {
		copy(buf[pos:pos+e.Length], sieve[e.Offset-span.Offset:e.End()-span.Offset])
		pos += e.Length
	}
	return nil
}

// SieveWriteAtRank performs an independent write with data sieving:
// read-modify-write of the covering span. Like ROMIO, it is only safe when
// concurrent writers do not touch the same span.
func (f *File) SieveWriteAtRank(rank int, dataOff int64, buf []byte) error {
	exts, err := f.resolve(rank, dataOff, buf)
	if err != nil {
		return err
	}
	if len(exts) == 0 {
		return nil
	}
	span := pfs.Span(exts)
	sieve := make([]byte, span.Length)
	if _, err := f.file.ReadAt(sieve, span.Offset); err != nil {
		return err
	}
	var pos int64
	for _, e := range exts {
		copy(sieve[e.Offset-span.Offset:e.End()-span.Offset], buf[pos:pos+e.Length])
		pos += e.Length
	}
	_, err = f.file.WriteAt(sieve, span.Offset)
	return err
}

func (f *File) resolve(rank int, dataOff int64, buf []byte) ([]pfs.Extent, error) {
	if rank < 0 || rank >= len(f.views) {
		return nil, fmt.Errorf("mpiio: invalid rank %d", rank)
	}
	if dataOff < 0 {
		return nil, fmt.Errorf("mpiio: negative data offset %d", dataOff)
	}
	if len(buf) == 0 {
		return nil, nil
	}
	return f.views[rank].Extents(dataOff, int64(len(buf))), nil
}

// Size returns the file's current size.
func (f *File) Size() int64 { return f.file.Size() }
