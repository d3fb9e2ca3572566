package bench

import (
	"runtime"
	"sync"
)

// The sweep engine's worker budget. Every experiment decomposes into
// independent, deterministic cells — (memory point × strategy) for the
// figure sweeps, (rate × strategy) for the resilience sweep, one design
// point for the trajectory — and ForEach fans them out across at most
// pool.n goroutines. Cells are pure plan+cost simulations, so the
// schedule cannot change any result: outputs land in per-cell slots and
// are rendered in index order, byte-identical to the serial run.
var pool = struct {
	sync.Mutex
	n   int
	sem chan struct{} // n-1 tokens: the caller's goroutine is the n-th worker
}{}

func init() { SetParallelism(0) }

// SetParallelism fixes the worker budget for subsequent ForEach calls:
// n = 1 runs every cell inline on the caller's goroutine (the exact
// legacy serial path), n < 1 resets to the default runtime.GOMAXPROCS(0).
// It must not be called concurrently with a running sweep.
func SetParallelism(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	pool.Lock()
	defer pool.Unlock()
	pool.n = n
	pool.sem = make(chan struct{}, n-1)
}

// ForEach runs fn(0) … fn(n-1), fanning the calls across at most
// pool.n concurrent goroutines. The token budget is global, so
// nested ForEach calls (an experiment fanning out sweeps that fan out
// cells) share one bound and can never deadlock: an item that cannot get
// a token simply runs inline on the goroutine that wanted to spawn it.
//
// With a budget of one, items run sequentially on the caller's goroutine
// and ForEach stops at the first error. With a larger budget every item
// runs (items are independent), and the returned error is the
// lowest-indexed one — the same error the serial path reports, since
// items are scheduled in index order.
func ForEach(n int, fn func(int) error) error {
	pool.Lock()
	p, sem := pool.n, pool.sem
	pool.Unlock()
	if p <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				errs[i] = fn(i)
			}(i)
		default:
			errs[i] = fn(i)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
