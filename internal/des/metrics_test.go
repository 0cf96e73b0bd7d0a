package des

import (
	"io"
	"sync"
	"testing"

	"autohet/internal/chaos"
	"autohet/internal/des/trace"
	"autohet/internal/obs"
)

// pacedRun drives one online run the way a wall-clock pacer does, taking
// the driver's lock around every call: Begin, then Step until Finished
// hands back the Result.
func pacedRun(f *Fleet, mu sync.Locker, gen trace.Generator, requests int) (*Result, error) {
	mu.Lock()
	err := f.Begin(gen, requests, 0)
	mu.Unlock()
	if err != nil {
		return nil, err
	}
	for {
		mu.Lock()
		res, err := f.Finished()
		if res == nil && err == nil {
			f.Step()
		}
		mu.Unlock()
		if res != nil || err != nil {
			return res, err
		}
	}
}

// scrapeWhile loops Prometheus scrapes of obs.Default on another goroutine
// while run executes; `go test -race` turns any unsynchronized metric read
// into a failure.
func scrapeWhile(run func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				obs.Default.WritePrometheus(io.Discard)
			}
		}
	}()
	run()
	close(done)
	wg.Wait()
}

// Scrapes during an unpaced serial run and a two-lane run read only
// atomics and per-run values.
func TestConcurrentScrapeDuringRun(t *testing.T) {
	lanes := DefaultConfig()
	lanes.Clusters, lanes.Workers = 4, 2
	for _, tc := range []struct {
		name  string
		cfg   Config
		lanes int
	}{
		{"serial", DefaultConfig(), 1},
		{"lanes", lanes, 2},
	} {
		f, err := NewFleet(tc.cfg, homogeneous(8, 1000, 100)...)
		if err != nil {
			t.Fatal(err)
		}
		var res *Result
		scrapeWhile(func() { res, err = f.RunTrace(trace.Poisson(4e6, 1), 20000, 0) })
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Lanes != tc.lanes {
			t.Fatalf("%s: ran %d lanes, want %d", tc.name, res.Lanes, tc.lanes)
		}
	}
}

// Back-to-back paced runs reset every circuit breaker while scrapes read
// autohet_chaos_breakers_open, which does not take the driver's lock.
func TestConcurrentBreakerResetScrape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Resilience.Breaker = &chaos.BreakerConfig{}
	var mu sync.Mutex
	f, err := NewOnline(cfg, &mu, homogeneous(4, 1000, 100)...)
	if err != nil {
		t.Fatal(err)
	}
	scrapeWhile(func() {
		for i := 0; i < 2000 && err == nil; i++ {
			_, err = pacedRun(f, &mu, trace.Poisson(1e6, 1), 10)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
