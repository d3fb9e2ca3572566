package pfs

import "sync"

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
