package pfs

// WriteCorrupter injects silent torn writes: an object write that
// reports full success while only a prefix of its bytes lands, as a
// power failure mid-write would leave it. PendingTorn is a cheap gate
// consulted once per object write; TearWrite decides whether the access
// starting at file offset off lands torn, and commits the tear. The
// decision must be a pure function of the access identity — concurrent
// aggregators reach a target in scheduling order, and a first-come
// budget would make the set of torn accesses vary run to run. The write
// path calls TearWrite only after establishing that the dropped tail
// differs from the bytes already stored there, so every committed tear
// is a real, detectable corruption. Implementations must be safe for
// concurrent callers.
type WriteCorrupter interface {
	PendingTorn(target int) bool
	TearWrite(target int, off int64) bool
}

// SetCorrupter installs a torn-write corrupter on the file system. A
// nil corrupter removes injection (the default); the fault-free write
// path then pays a single nil check per object access. Call before
// issuing I/O.
func (fs *FileSystem) SetCorrupter(c WriteCorrupter) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.corr = c
}
