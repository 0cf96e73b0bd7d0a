package search

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(0) … fn(n-1) across a bounded worker pool of
// min(runtime.GOMAXPROCS(0), n) goroutines: the CPUs the scheduler may
// run Go code on, sized the way sim.Engine sizes its pool. Callers get
// deterministic results by writing into index-addressed slots from fn; the
// pool imposes no ordering of its own. The returned error is the lowest-index one, regardless of
// which worker hit it first, so error reporting is schedule-independent.
// Unlike a sequential loop, fn may still be called for indices after a
// failing one (workers drain the index stream independently).
func ParallelFor(n int, fn func(int) error) error {
	if n <= 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
