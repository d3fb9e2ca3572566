package bench

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// parallelism returns the current worker budget.
func parallelism() int {
	pool.Lock()
	defer pool.Unlock()
	return pool.n
}

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	if got := parallelism(); got != 3 {
		t.Fatalf("parallelism() = %d, want 3", got)
	}
	// Non-positive resets to the default worker budget.
	SetParallelism(0)
	if got, want := parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default parallelism() = %d, want GOMAXPROCS %d", got, want)
	}
	SetParallelism(-5)
	if got, want := parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("parallelism() after -5 = %d, want GOMAXPROCS %d", got, want)
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	defer SetParallelism(0)
	for _, workers := range []int{1, 2, 4, 16} {
		SetParallelism(workers)
		const n = 100
		var hits [n]int32
		if err := ForEach(n, func(i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if hits[i] != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, hits[i])
			}
		}
	}
}

// The parallel path must report the same error the serial path would:
// the lowest-indexed one.
func TestForEachReturnsLowestIndexedError(t *testing.T) {
	defer SetParallelism(0)
	for _, workers := range []int{1, 4} {
		SetParallelism(workers)
		err := ForEach(10, func(i int) error {
			if i == 3 || i == 7 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("workers=%d: err = %v, want item 3", workers, err)
		}
	}
}

// With a budget of one, ForEach is the exact legacy loop: sequential and
// aborting at the first error.
func TestForEachSerialStopsAtFirstError(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(1)
	sentinel := errors.New("boom")
	calls := 0
	err := ForEach(10, func(i int) error {
		calls++
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 3 {
		t.Fatalf("serial path made %d calls after an error at index 2, want 3", calls)
	}
}

// Nested fan-out (experiments spawning sweeps spawning cells) shares one
// global token budget, so it must complete rather than deadlock.
func TestForEachNestedDoesNotDeadlock(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	var total int64
	err := ForEach(8, func(i int) error {
		return ForEach(8, func(j int) error {
			atomic.AddInt64(&total, 1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != 64 {
		t.Fatalf("nested ForEach ran %d items, want 64", total)
	}
}

// The semaphore holds n-1 tokens and the caller is the n-th worker, so
// at most parallelism() items may ever run concurrently.
func TestForEachBoundsConcurrency(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(3)
	var cur, peak int64
	err := ForEach(64, func(i int) error {
		c := atomic.AddInt64(&cur, 1)
		for {
			p := atomic.LoadInt64(&peak)
			if c <= p || atomic.CompareAndSwapInt64(&peak, p, c) {
				break
			}
		}
		atomic.AddInt64(&cur, -1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak > 3 {
		t.Fatalf("observed %d concurrent items with a budget of 3", peak)
	}
}

func TestForEachEmptyAndSingle(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	if err := ForEach(0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := ForEach(1, func(int) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
}
