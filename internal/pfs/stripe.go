package pfs

import (
	"fmt"
	"sync"
)

// Layout is a per-file striping policy, the equivalent of Lustre's
// `lfs setstripe`: a stripe unit, a stripe count (how many of the file
// system's targets the file spreads over), and the first target index.
// The paper's experiments stripe "over all I/O servers with the round
// robin default striping strategy"; Layout lets individual files deviate.
type Layout struct {
	StripeUnit  int64
	StripeCount int // number of targets used; 0 means all
	FirstTarget int // offset into the target list
}

// normalize fills defaults against the file system configuration and
// validates the result.
func (l Layout) normalize(cfg Config) (Layout, error) {
	if l.StripeUnit == 0 {
		l.StripeUnit = cfg.StripeUnit
	}
	if l.StripeCount == 0 {
		l.StripeCount = cfg.Targets
	}
	switch {
	case l.StripeUnit <= 0:
		return l, fmt.Errorf("pfs: stripe unit %d must be positive", l.StripeUnit)
	case l.StripeCount < 1 || l.StripeCount > cfg.Targets:
		return l, fmt.Errorf("pfs: stripe count %d outside [1,%d]", l.StripeCount, cfg.Targets)
	case l.FirstTarget < 0 || l.FirstTarget >= cfg.Targets:
		return l, fmt.Errorf("pfs: first target %d outside [0,%d)", l.FirstTarget, cfg.Targets)
	}
	return l, nil
}

// layoutConfig derives the Config describing this layout's stripe math:
// same cost parameters, restricted target set.
func (l Layout) layoutConfig(cfg Config) Config {
	out := cfg
	out.StripeUnit = l.StripeUnit
	out.Targets = l.StripeCount
	return out
}

// mapTarget translates a layout-relative target index to a file-system
// target index.
func (l Layout) mapTarget(cfg Config, t int) int {
	return (l.FirstTarget + t) % cfg.Targets
}

// OpenStriped opens (creating if needed) a file with an explicit striping
// layout. Opening an existing file with a different layout is an error —
// stripe settings are fixed at creation, as on Lustre.
func (fs *FileSystem) OpenStriped(name string, layout Layout) (*File, error) {
	norm, err := layout.normalize(fs.cfg)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f := fs.files[name]; f != nil {
		if f.layout != norm {
			return nil, fmt.Errorf("pfs: file %q already striped %+v", name, f.layout)
		}
		return f, nil
	}
	f := &File{
		fs:      fs,
		name:    name,
		layout:  norm,
		objects: make([][]byte, norm.StripeCount),
	}
	fs.files[name] = f
	return f, nil
}

// Layout returns the file's striping policy.
func (f *File) Layout() Layout { return f.layout }

// TargetStats accumulates per-target written bytes for a file system —
// the "which OST is hot" view an administrator would pull from server
// statistics.
type TargetStats struct {
	mu      sync.Mutex
	written []int64
}

// NewTargetStats creates counters for a file system's targets.
func NewTargetStats(targets int) *TargetStats {
	return &TargetStats{written: make([]int64, targets)}
}

// RecordWrite adds written bytes for a target.
func (s *TargetStats) RecordWrite(target int, bytes int64) {
	s.mu.Lock()
	s.written[target] += bytes
	s.mu.Unlock()
}

// Written returns per-target written bytes.
func (s *TargetStats) Written() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.written...)
}
