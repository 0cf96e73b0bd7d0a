package fleet

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autohet/internal/des"
	"autohet/internal/fault"
	"autohet/internal/sim"
)

// TestStressConcurrentFleet hammers one fleet from many producers while
// faults are injected and cleared mid-run, snapshots are read concurrently,
// and Close races the last submissions. Run under -race this exercises every
// cross-goroutine edge; afterwards the books must balance exactly:
// every accepted request resolves exactly once, and the fleet counters
// partition the accepted set into completed/expired/failed.
func TestStressConcurrentFleet(t *testing.T) {
	const (
		producers   = 8
		perProducer = 300
	)
	cfg := Config{
		Config: des.Config{
			Policy:         PowerOfTwo,
			MaxBatch:       4,
			BatchTimeoutNS: 50_000,
			QueueDepth:     64,
			MaxRetries:     2,
			Seed:           5,
		},
		TimeScale: 1e-4, // ~0.1 µs wall per 1 ms virtual: real contention, fast test
	}
	specs := []ReplicaSpec{
		{Name: "a", Pipeline: &sim.PipelineResult{FillNS: 2e6, IntervalNS: 1e6}},
		{Name: "b", Pipeline: &sim.PipelineResult{FillNS: 2e6, IntervalNS: 1e6}},
		{Name: "c", Pipeline: &sim.PipelineResult{FillNS: 4e6, IntervalNS: 2e6}},
		{Name: "d", Pipeline: &sim.PipelineResult{FillNS: 4e6, IntervalNS: 2e6}},
	}
	f, err := New(cfg, specs...)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan Outcome, producers*perProducer)
	var accepted, shed, unroutable, rejected atomic.Int64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				arrival := float64(i)*1e5 + float64(p)
				budget := 0.0
				if i%8 == 0 {
					budget = 1 // unservable: fill alone exceeds it
				}
				err := f.Submit(NewRequest(arrival, budget, done))
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrShed):
					shed.Add(1)
				case errors.Is(err, ErrNoReplica):
					unroutable.Add(1)
				case errors.Is(err, ErrClosed):
					rejected.Add(1)
				default:
					t.Errorf("submit: %v", err)
				}
			}
		}(p)
	}

	// Fault injector: degrade and recover two replicas repeatedly mid-run.
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		stuck := &fault.Model{StuckAtZero: 0.05, Seed: 1}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := specs[i%2].Name
			if err := f.InjectFault(name, stuck); err != nil {
				t.Errorf("inject: %v", err)
			}
			time.Sleep(200 * time.Microsecond)
			if err := f.InjectFault(name, nil); err != nil {
				t.Errorf("recover: %v", err)
			}
		}
	}()
	// Snapshot reader racing the writers.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := f.Snapshot()
			if s.Completed < 0 || len(s.Replicas) != len(specs) {
				t.Errorf("implausible snapshot: %+v", s)
			}
			_ = s.String()
			time.Sleep(50 * time.Microsecond)
		}
	}()

	wg.Wait()
	close(stop)
	aux.Wait()
	// Recover everything so drain cannot dead-end on an all-degraded fleet.
	for _, spec := range specs {
		if err := f.InjectFault(spec.Name, nil); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	// Every accepted request must have delivered exactly one outcome.
	var completed, expired, failed int64
	for i := int64(0); i < accepted.Load(); i++ {
		select {
		case out := <-done:
			switch {
			case out.Err == nil:
				completed++
				if out.LatencyNS <= 0 {
					t.Errorf("non-positive latency %v", out.LatencyNS)
				}
			case errors.Is(out.Err, ErrDeadline):
				expired++
			default:
				failed++
			}
		default:
			t.Fatalf("only %d of %d outcomes delivered", i, accepted.Load())
		}
	}
	select {
	case out := <-done:
		t.Fatalf("stray outcome %+v beyond the accepted count", out)
	default:
	}

	s := f.Snapshot()
	if total := accepted.Load() + shed.Load() + unroutable.Load(); s.Submitted != total {
		t.Errorf("submitted %d, producers saw %d", s.Submitted, total)
	}
	if s.Shed != shed.Load() {
		t.Errorf("shed counter %d, producers saw %d", s.Shed, shed.Load())
	}
	if s.Unroutable != unroutable.Load() {
		t.Errorf("unroutable counter %d, producers saw %d", s.Unroutable, unroutable.Load())
	}
	if s.Completed != completed || s.Expired != expired || s.Failed != failed {
		t.Errorf("counters (%d,%d,%d) disagree with outcomes (%d,%d,%d)",
			s.Completed, s.Expired, s.Failed, completed, expired, failed)
	}
	if completed+expired+failed != accepted.Load() {
		t.Errorf("outcomes %d do not partition accepted %d",
			completed+expired+failed, accepted.Load())
	}
	var served, rexpired int64
	for _, r := range s.Replicas {
		served += r.Served
		rexpired += r.Expired
		if r.Queued != 0 || r.Outstanding != 0 {
			t.Errorf("replica %s not drained: queued %d outstanding %d",
				r.Name, r.Queued, r.Outstanding)
		}
	}
	if served != s.Completed || rexpired != s.Expired {
		t.Errorf("per-replica served/expired %d/%d vs fleet %d/%d",
			served, rexpired, s.Completed, s.Expired)
	}
	if rejected.Load() > 0 {
		t.Errorf("submissions rejected with ErrClosed before Close: %d", rejected.Load())
	}
	t.Logf("accepted %d, shed %d; completed %d, expired %d, failed %d, retried %d",
		accepted.Load(), shed.Load(), completed, expired, failed, s.Retried)
}

// TestStressCloseRacesSubmit drives producers that keep submitting while a
// consumer drains outcomes and Close runs: post-close submissions must get
// ErrClosed, never panic, and everything accepted must still resolve.
func TestStressCloseRacesSubmit(t *testing.T) {
	cfg := freeRunning()
	cfg.QueueDepth = 1024
	f, err := New(cfg,
		ReplicaSpec{Name: "a", Pipeline: fastPipeline()},
		ReplicaSpec{Name: "b", Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Outcome, 1024)
	var accepted, received atomic.Int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range done {
			received.Add(1)
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; ; i++ {
				err := f.Submit(NewRequest(float64(i), 0, done))
				if errors.Is(err, ErrClosed) {
					return
				}
				if err == nil {
					accepted.Add(1)
				}
			}
		}(p)
	}
	time.Sleep(2 * time.Millisecond)
	f.Close()
	wg.Wait()
	// Close returned, so every accepted request has already sent its
	// outcome; closing done lets the drainer finish counting them.
	close(done)
	<-drained
	if received.Load() != accepted.Load() {
		t.Fatalf("accepted %d but drained %d outcomes", accepted.Load(), received.Load())
	}
	if accepted.Load() == 0 {
		t.Fatal("stress run accepted nothing")
	}
}
