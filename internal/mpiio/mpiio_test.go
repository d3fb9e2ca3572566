package mpiio

import (
	"bytes"
	"testing"

	"mcio/internal/collio"
	"mcio/internal/core"
	"mcio/internal/datatype"
	"mcio/internal/machine"
	"mcio/internal/mpi"
	"mcio/internal/pfs"
	"mcio/internal/sim"
	"mcio/internal/twophase"
)

func testSetup(t *testing.T, ranks, perNode int) (*collio.Context, *pfs.FileSystem) {
	t.Helper()
	topo, err := mpi.BlockTopology(ranks, perNode)
	if err != nil {
		t.Fatal(err)
	}
	mc := machine.Testbed640()
	mc.Nodes = topo.Nodes()
	avail := make([]int64, topo.Nodes())
	for i := range avail {
		avail[i] = mc.MemPerNode
	}
	fsCfg := pfs.DefaultConfig(4)
	fsCfg.StripeUnit = 64
	params := collio.DefaultParams(128)
	params.MemMin = 16
	ctx := &collio.Context{Topo: topo, Machine: mc, Avail: avail, FS: fsCfg, Params: params}
	fsys, err := pfs.NewFileSystem(fsCfg)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, fsys
}

func TestOpenValidation(t *testing.T) {
	ctx, fsys := testSetup(t, 4, 2)
	if _, err := Open(fsys, "f", ctx, nil); err == nil {
		t.Fatal("nil strategy accepted")
	}
	otherFS, _ := pfs.NewFileSystem(pfs.DefaultConfig(9))
	if _, err := Open(otherFS, "f", ctx, twophase.New()); err == nil {
		t.Fatal("mismatched file system accepted")
	}
	if _, err := Open(fsys, "f", ctx, twophase.New()); err != nil {
		t.Fatal(err)
	}
}

func TestSetViewValidation(t *testing.T) {
	ctx, fsys := testSetup(t, 4, 2)
	f, _ := Open(fsys, "f", ctx, twophase.New())
	if err := f.SetView(-1, datatype.ContigView()); err == nil {
		t.Fatal("bad rank accepted")
	}
	if err := f.SetView(0, datatype.View{Filetype: datatype.Contiguous{}}); err == nil {
		t.Fatal("empty filetype accepted")
	}
	if err := f.SetView(0, datatype.View{Disp: -1, Filetype: datatype.Contiguous{Bytes: 1}}); err == nil {
		t.Fatal("negative displacement accepted")
	}
	if err := f.SetViewAll(datatype.View{Disp: 8, Filetype: datatype.Contiguous{Bytes: 4}}); err != nil {
		t.Fatal(err)
	}
}

func TestSetOptions(t *testing.T) {
	ctx, fsys := testSetup(t, 4, 2)
	f, _ := Open(fsys, "f", ctx, twophase.New())
	opt := sim.DefaultOptions()
	opt.Overlap = true
	if err := f.SetOptions(opt); err != nil {
		t.Fatal(err)
	}
	opt.NahOpt = 0
	if err := f.SetOptions(opt); err == nil {
		t.Fatal("bad options accepted")
	}
}

// Collective write/read through strided views, both strategies.
func TestCollectiveThroughViews(t *testing.T) {
	for _, s := range []collio.Strategy{twophase.New(), core.New()} {
		ctx, fsys := testSetup(t, 6, 2)
		f, err := Open(fsys, "viewfile", ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		// Layout: rank r owns bytes [r*40, r*40+40) via its displacement.
		for r := 0; r < 6; r++ {
			if err := f.SetView(r, datatype.View{Disp: int64(r) * 40, Filetype: datatype.Contiguous{Bytes: 1}}); err != nil {
				t.Fatal(err)
			}
		}
		args := make([]CollArgs, 6)
		for r := range args {
			buf := make([]byte, 40)
			for i := range buf {
				buf[i] = byte(r*40 + i)
			}
			args[r] = CollArgs{Buf: buf}
		}
		res, err := f.WriteAll(args)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.UserBytes != 240 || res.Bandwidth <= 0 {
			t.Fatalf("%s: cost result %+v", s.Name(), res)
		}
		// Verify raw file contents straight off the striped store.
		got := make([]byte, 240)
		raw := fsys.Open("viewfile")
		if _, err := raw.ReadAt(got, 0); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != byte(i) {
				t.Fatalf("%s: byte %d = %d", s.Name(), i, got[i])
			}
		}
		// Collective read back.
		rargs := make([]CollArgs, 6)
		for r := range rargs {
			rargs[r] = CollArgs{Buf: make([]byte, 40)}
		}
		if _, err := f.ReadAll(rargs); err != nil {
			t.Fatal(err)
		}
		for r := range rargs {
			if !bytes.Equal(rargs[r].Buf, args[r].Buf) {
				t.Fatalf("%s: rank %d read mismatch", s.Name(), r)
			}
		}
	}
}

func TestCollectiveArgCountMismatch(t *testing.T) {
	ctx, fsys := testSetup(t, 4, 2)
	f, _ := Open(fsys, "f", ctx, twophase.New())
	if _, err := f.WriteAll(make([]CollArgs, 2)); err == nil {
		t.Fatal("short args accepted")
	}
}

func TestIndependentIO(t *testing.T) {
	ctx, fsys := testSetup(t, 4, 2)
	f, _ := Open(fsys, "ind", ctx, twophase.New())
	data := []byte("independent path")
	if err := f.WriteAtRank(1, 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := f.ReadAtRank(2, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("independent read = %q", got)
	}
	if f.Size() != int64(len(data)) {
		t.Fatalf("size = %d", f.Size())
	}
	if err := f.WriteAtRank(9, 0, data); err == nil {
		t.Fatal("invalid rank accepted")
	}
	if err := f.ReadAtRank(0, -1, got); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := f.WriteAtRank(0, 0, nil); err != nil {
		t.Fatal("empty write should be a no-op")
	}
}

func TestIndependentThroughStridedView(t *testing.T) {
	ctx, fsys := testSetup(t, 4, 2)
	f, _ := Open(fsys, "strided", ctx, twophase.New())
	// Blocks of 4 bytes every 12.
	v := datatype.View{Filetype: datatype.Vector{Count: 3, BlockLen: 4, Stride: 12}}
	if err := f.SetView(0, v); err != nil {
		t.Fatal(err)
	}
	data := []byte("AAAABBBBCCCC")
	if err := f.WriteAtRank(0, 0, data); err != nil {
		t.Fatal(err)
	}
	raw := fsys.Open("strided")
	got := make([]byte, 28)
	raw.ReadAt(got, 0)
	want := "AAAA\x00\x00\x00\x00\x00\x00\x00\x00BBBB\x00\x00\x00\x00\x00\x00\x00\x00CCCC"
	if string(got) != want {
		t.Fatalf("strided write layout:\n got %q\nwant %q", got, want)
	}
}

func TestSieveMatchesDirect(t *testing.T) {
	ctx, fsys := testSetup(t, 4, 2)
	f, _ := Open(fsys, "sieve", ctx, twophase.New())
	v := datatype.View{Disp: 3, Filetype: datatype.Vector{Count: 4, BlockLen: 3, Stride: 10}}
	if err := f.SetView(0, v); err != nil {
		t.Fatal(err)
	}
	data := []byte("abcdefghijkl")
	if err := f.SieveWriteAtRank(0, 0, data); err != nil {
		t.Fatal(err)
	}
	direct := make([]byte, len(data))
	if err := f.ReadAtRank(0, 0, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, data) {
		t.Fatalf("sieve write + direct read = %q", direct)
	}
	sieved := make([]byte, len(data))
	if err := f.SieveReadAtRank(0, 0, sieved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sieved, data) {
		t.Fatalf("sieve read = %q", sieved)
	}
	// Empty sieve ops are no-ops.
	if err := f.SieveReadAtRank(0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.SieveWriteAtRank(0, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPlanOnly(t *testing.T) {
	ctx, fsys := testSetup(t, 4, 2)
	f, _ := Open(fsys, "planonly", ctx, core.New())
	reqs := []collio.RankRequest{
		{Rank: 0, Extents: []pfs.Extent{{Offset: 0, Length: 1000}}},
		{Rank: 1, Extents: []pfs.Extent{{Offset: 1000, Length: 1000}}},
		{Rank: 2},
		{Rank: 3},
	}
	res, err := f.PlanOnly(reqs, collio.Write)
	if err != nil {
		t.Fatal(err)
	}
	if res.UserBytes != 2000 {
		t.Fatalf("user bytes = %d", res.UserBytes)
	}
	// PlanOnly must not touch the file.
	if f.Size() != 0 {
		t.Fatal("PlanOnly wrote data")
	}
}

func TestCollectiveWithTraceOptions(t *testing.T) {
	ctx, fsys := testSetup(t, 4, 2)
	f, _ := Open(fsys, "traced", ctx, core.New())
	opt := sim.DefaultOptions()
	opt.Trace = true
	if err := f.SetOptions(opt); err != nil {
		t.Fatal(err)
	}
	args := make([]CollArgs, 4)
	for r := range args {
		if err := f.SetView(r, datatype.View{Disp: int64(r) * 256, Filetype: datatype.Contiguous{Bytes: 1}}); err != nil {
			t.Fatal(err)
		}
		args[r] = CollArgs{Buf: make([]byte, 256)}
	}
	res, err := f.WriteAll(args)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("trace requested but empty")
	}
}

func TestReadAllOnEmptyFileReturnsZeros(t *testing.T) {
	ctx, fsys := testSetup(t, 4, 2)
	f, _ := Open(fsys, "fresh", ctx, twophase.New())
	args := make([]CollArgs, 4)
	for r := range args {
		if err := f.SetView(r, datatype.View{Disp: int64(r) * 64, Filetype: datatype.Contiguous{Bytes: 1}}); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		for i := range buf {
			buf[i] = 0xEE // must be overwritten with zeros
		}
		args[r] = CollArgs{Buf: buf}
	}
	if _, err := f.ReadAll(args); err != nil {
		t.Fatal(err)
	}
	for r := range args {
		for i, b := range args[r].Buf {
			if b != 0 {
				t.Fatalf("rank %d byte %d = %#x, want sparse zero", r, i, b)
			}
		}
	}
}
