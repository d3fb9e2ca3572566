// Package pfs simulates a striped parallel file system in the style of
// Lustre: a file's byte stream is split into stripe units distributed
// round-robin across object storage targets (OSTs). Files store real bytes,
// so every collective I/O strategy in this repository is verified
// end-to-end: what a collective write puts on the targets is exactly what a
// later read — collective or independent — must return.
//
// The package also performs the stripe mapping used for cost accounting:
// MapExtents converts a set of file-space extents into per-target accesses
// (bytes, request counts, contiguity) that the sim engine prices.
package pfs

import (
	"bytes"
	"fmt"
	"sync"
)

// Config describes the file system layout and the performance of its
// targets.
type Config struct {
	Targets    int   // number of OSTs
	StripeUnit int64 // bytes per stripe unit (the paper's runs use 1 MB)

	// Cost-model parameters the sim engine prices target accesses with.
	TargetBW float64 // streaming write bandwidth per target, bytes/s
	// ReadBWFactor scales TargetBW for reads (storage reads stream faster
	// than writes). The zero value means symmetric (factor 1).
	ReadBWFactor    float64
	ReqOverhead     float64 // per-request overhead, seconds
	NoncontigFactor float64 // slowdown for fragmented target accesses
}

// Validate reports an error when the layout is unusable.
func (c Config) Validate() error {
	switch {
	case c.Targets <= 0:
		return fmt.Errorf("pfs: Targets = %d, must be positive", c.Targets)
	case c.StripeUnit <= 0:
		return fmt.Errorf("pfs: StripeUnit = %d, must be positive", c.StripeUnit)
	case c.TargetBW <= 0:
		return fmt.Errorf("pfs: TargetBW must be positive")
	case c.ReadBWFactor < 0:
		return fmt.Errorf("pfs: ReadBWFactor must be non-negative")
	case c.ReqOverhead < 0:
		return fmt.Errorf("pfs: ReqOverhead must be non-negative")
	case c.NoncontigFactor < 1:
		return fmt.Errorf("pfs: NoncontigFactor must be >= 1")
	}
	return nil
}

// DefaultConfig mirrors the paper's testbed file system: 1 MB stripes
// round-robin over all targets ("files were striped over all I/O servers
// with the round robin default striping strategy, 1 MB unit size").
func DefaultConfig(targets int) Config {
	return Config{
		Targets:         targets,
		StripeUnit:      1 << 20,
		TargetBW:        500e6,
		ReadBWFactor:    1.25, // reads stream faster than writes, as on the testbed
		ReqOverhead:     0.5e-3,
		NoncontigFactor: 4,
	}
}

// FileSystem is a namespace of striped files.
type FileSystem struct {
	cfg   Config
	stats *TargetStats
	mu    sync.Mutex
	files map[string]*File
	corr  WriteCorrupter // torn-write injection; nil when fault-free
}

// NewFileSystem creates an empty file system with the given layout.
func NewFileSystem(cfg Config) (*FileSystem, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &FileSystem{
		cfg:   cfg,
		stats: NewTargetStats(cfg.Targets),
		files: map[string]*File{},
	}, nil
}

// Config returns the file system's layout configuration.
func (fs *FileSystem) Config() Config { return fs.cfg }

// Stats returns the per-target traffic counters.
func (fs *FileSystem) Stats() *TargetStats { return fs.stats }

// Open returns the named file, creating it empty if absent. Every file
// stripes round-robin over all of the file system's targets in units of
// Config.StripeUnit, as the paper's runs do.
func (fs *FileSystem) Open(name string) *File {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.files[name]; f != nil {
		return f
	}
	f := &File{fs: fs, name: name, objects: make([][]byte, fs.cfg.Targets)}
	fs.files[name] = f
	return f
}

// File is one striped file. Methods are safe for concurrent use; writes to
// disjoint ranges from concurrent aggregators are the normal case.
type File struct {
	fs   *FileSystem
	name string

	mu      sync.RWMutex
	objects [][]byte // per-target object contents
	size    int64    // file size (highest written offset + 1)
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// StripeUnit returns the file's stripe unit: the file system's.
func (f *File) StripeUnit() int64 { return f.fs.cfg.StripeUnit }

// Size returns the current file size in bytes.
func (f *File) Size() int64 {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.size
}

// stripeLoc maps a file offset to (target, object offset).
func (c Config) stripeLoc(off int64) (target int, objOff int64) {
	su := c.StripeUnit
	stripe := off / su
	target = int(stripe % int64(c.Targets))
	objOff = (stripe/int64(c.Targets))*su + off%su
	return target, objOff
}

// WriteAt writes p at file offset off, growing the file as needed.
// It returns len(p). Negative offsets are an error.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pfs: WriteAt %s: negative offset %d", f.name, off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	cfg := f.fs.cfg
	su := cfg.StripeUnit
	for pos := 0; pos < len(p); {
		cur := off + int64(pos)
		target, objOff := cfg.stripeLoc(cur)
		// Bytes until the end of this stripe unit.
		n := int(su - cur%su)
		if rem := len(p) - pos; n > rem {
			n = rem
		}
		obj := f.objects[target]
		if need := objOff + int64(n); int64(len(obj)) < need {
			grown := make([]byte, need)
			copy(grown, obj)
			obj = grown
			f.objects[target] = obj
		}
		keep := n
		if wc := f.fs.corr; wc != nil && wc.PendingTorn(target) {
			// Tear the write only if dropping the tail actually changes the
			// stored bytes — a tear nobody could ever observe is no
			// corruption, and consuming the event for it would break the
			// "every injected corruption is detectable" accounting.
			half := n / 2
			if !bytes.Equal(obj[objOff+int64(half):objOff+int64(n)], p[pos+half:pos+n]) &&
				wc.TearWrite(target, cur) {
				keep = half
			}
		}
		copy(obj[objOff:objOff+int64(keep)], p[pos:pos+keep])
		// Stats record the full request: the target acknowledged all n
		// bytes, which is exactly what makes the tear silent.
		f.fs.stats.RecordWrite(target, int64(n))
		pos += n
	}
	if end := off + int64(len(p)); end > f.size {
		f.size = end
	}
	return len(p), nil
}

// ReadAt reads len(p) bytes at file offset off. Bytes beyond the file size
// or never written read as zero, matching sparse-file semantics; n is
// len(p) with a nil error for non-negative offsets.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("pfs: ReadAt %s: negative offset %d", f.name, off)
	}
	if len(p) == 0 {
		return 0, nil
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	cfg := f.fs.cfg
	su := cfg.StripeUnit
	for pos := 0; pos < len(p); {
		cur := off + int64(pos)
		target, objOff := cfg.stripeLoc(cur)
		n := int(su - cur%su)
		if rem := len(p) - pos; n > rem {
			n = rem
		}
		obj := f.objects[target]
		have := int64(len(obj)) - objOff // stored bytes available at objOff
		if have > int64(n) {
			have = int64(n)
		}
		if have > 0 {
			copy(p[pos:pos+int(have)], obj[objOff:objOff+have])
		} else {
			have = 0
		}
		for i := int(have); i < n; i++ {
			p[pos+i] = 0 // sparse region reads as zero
		}
		pos += n
	}
	return len(p), nil
}
