package fleet

import (
	"testing"
	"time"

	"autohet/internal/chaos"
	"autohet/internal/sim"
)

func TestCrashBouncesQueueAndRestartHeals(t *testing.T) {
	f := mustNew(t, frozen(JoinShortestQueue, 8),
		ReplicaSpec{Name: "a", Pipeline: fastPipeline()},
		ReplicaSpec{Name: "b", Pipeline: fastPipeline()})
	const n = 4
	done := make(chan Outcome, 2*n)
	stageQueues(t, f, []int{n, 0}, done)
	if err := f.Crash("a"); err != nil {
		t.Fatal(err)
	}
	if got := queued(f); got[0] != 0 || got[1] != n {
		t.Fatalf("queues after crash %v, want a's %d bounced to b", got, n)
	}
	// Four more fill b's batch of 8.
	filler := make(chan Outcome, n)
	for i := 0; i < n; i++ {
		submit(t, f, 0, filler)
	}
	for i := 0; i < n; i++ {
		out := <-done
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if out.Replica != "b" || out.Retries != 1 {
			t.Fatalf("outcome %+v, want bounced to b", out)
		}
	}
	// Restart: jsq sends the next request to the empty a again.
	if err := f.Restart("a"); err != nil {
		t.Fatal(err)
	}
	if got := lastPick(t, f, done); got != "a" {
		t.Fatalf("restarted replica not picked (got %q)", got)
	}
	release(t, f)
	if err := f.Crash("nope"); err == nil {
		t.Fatal("crash of unknown replica did not error")
	}
}

func TestSlowAndLinkStretchService(t *testing.T) {
	f := mustNew(t, freeRunning(), ReplicaSpec{Name: "a",
		Pipeline: &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}})
	done := make(chan Outcome, 3)
	if err := f.SetSlowFactor("a", 3); err != nil {
		t.Fatal(err)
	}
	if err := f.SetLinkPenalty("a", 500); err != nil {
		t.Fatal(err)
	}
	submit(t, f, 0, done)
	out := <-done
	// fill·3 + link = 3500.
	if out.Err != nil || out.LatencyNS != 3500 {
		t.Fatalf("degraded latency %+v, want 3500 ns", out)
	}
	// Restore: back to the exact healthy recurrence.
	if err := f.SetSlowFactor("a", 1); err != nil {
		t.Fatal(err)
	}
	if err := f.SetLinkPenalty("a", 0); err != nil {
		t.Fatal(err)
	}
	submit(t, f, 1e6, done)
	out = <-done
	if out.Err != nil || out.LatencyNS != 1000 {
		t.Fatalf("restored outcome %+v, want 1000 ns", out)
	}
	if err := f.SetSlowFactor("a", 0.5); err == nil {
		t.Fatal("slow factor < 1 accepted")
	}
	f.Close()
}

func TestBreakerOpensOnCrashBounces(t *testing.T) {
	cfg := frozen(RoundRobin, 4)
	cfg.Resilience.Breaker = &chaos.BreakerConfig{FailureThreshold: 3, OpenNS: 1e15}
	cfg.MaxRetries = 5
	f := mustNew(t, cfg,
		ReplicaSpec{Name: "a", Pipeline: fastPipeline()},
		ReplicaSpec{Name: "b", Pipeline: fastPipeline()})
	if err := f.Crash("a"); err != nil {
		t.Fatal(err)
	}
	done := make(chan Outcome, 64)
	// Dispatch filters the crashed replica: all eight go to b (two full
	// batches of 4).
	for i := 0; i < 8; i++ {
		submit(t, f, 0, done)
	}
	for i := 0; i < 8; i++ {
		if out := <-done; out.Err != nil || out.Replica != "b" {
			t.Fatalf("outcome %+v, want served by b", out)
		}
	}
	// a's breaker saw no traffic, so it is still closed. Restart a, let
	// round robin queue three requests on each replica, and crash a again:
	// the three bounces are failures for a's breaker, which opens.
	if err := f.Restart("a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		submit(t, f, 0, done)
	}
	if got := queued(f); got[0] != 3 || got[1] != 3 {
		t.Fatalf("staged queues %v, want 3 and 3", got)
	}
	if err := f.Crash("a"); err != nil {
		t.Fatal(err)
	}
	// Restart heals the crash flag, but the open breaker (cooldown far in
	// the future) keeps dispatch away from "a".
	if err := f.Restart("a"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if got := lastPick(t, f, done); got != "b" {
			t.Fatalf("open breaker leaked traffic to %q", got)
		}
	}
	release(t, f)
}

// Satellite: graceful drain under churn. A chaos schedule crashes and
// restarts replicas while a paced workload is offered and the fleet is
// then drained — Close must terminate and every accepted request must
// resolve with exactly one outcome (served, expired, or failed — never
// lost).
func TestDrainUnderChurnLosesNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = JoinShortestQueue
	cfg.TimeScale = 0.1
	cfg.MaxBatch = 4
	cfg.BatchTimeoutNS = 1e6
	cfg.HealthSweepNS = -1
	specs := []ReplicaSpec{
		{Name: "r0", Pipeline: &sim.PipelineResult{FillNS: 5e5, IntervalNS: 1e5}},
		{Name: "r1", Pipeline: &sim.PipelineResult{FillNS: 5e5, IntervalNS: 1e5}},
		{Name: "r2", Pipeline: &sim.PipelineResult{FillNS: 5e5, IntervalNS: 1e5}},
		{Name: "r3", Pipeline: &sim.PipelineResult{FillNS: 5e5, IntervalNS: 1e5}},
	}
	f, err := New(cfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	// Rolling churn across the workload's 1e8 ns virtual span; the tail
	// restarts land while Close is draining.
	sched := chaos.Scripted(
		chaos.Event{AtNS: 1e7, Kind: chaos.Crash, Target: "r0"},
		chaos.Event{AtNS: 2e7, Kind: chaos.Crash, Target: "r1"},
		chaos.Event{AtNS: 3e7, Kind: chaos.Slow, Target: "r2", Value: 5},
		chaos.Event{AtNS: 4e7, Kind: chaos.Restart, Target: "r0"},
		chaos.Event{AtNS: 5e7, Kind: chaos.Crash, Target: "r3"},
		chaos.Event{AtNS: 6e7, Kind: chaos.Restart, Target: "r1"},
		chaos.Event{AtNS: 7e7, Kind: chaos.Slow, Target: "r2", Value: 1},
		chaos.Event{AtNS: 8e7, Kind: chaos.Crash, Target: "r2"},
		chaos.Event{AtNS: 9e7, Kind: chaos.Restart, Target: "r3"},
		chaos.Event{AtNS: 9.5e7, Kind: chaos.Restart, Target: "r2"},
	)
	stop := f.StartChaos(sched)
	defer stop()

	const n = 1000
	done := make(chan Outcome, n)
	accepted, shed, unroutable := 0, 0, 0
	for i := 0; i < n; i++ {
		arrival := float64(i) * 1e5 // 10k req/s against 40k capacity
		// Pace the submitter on the fleet's clock.
		if d := time.Duration((arrival - f.VirtualNow()) * cfg.TimeScale); d > 0 {
			time.Sleep(d)
		}
		switch err := f.Submit(NewRequest(arrival, 2e7, done)); err {
		case nil:
			accepted++
		case ErrShed:
			shed++
		case ErrNoReplica:
			unroutable++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// Drain while the chaos tail (crash r2 / restarts) is still firing.
	closed := make(chan struct{})
	go func() {
		f.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("drain under churn did not terminate")
	}

	completed, expired, failed := 0, 0, 0
	for i := 0; i < accepted; i++ {
		select {
		case out := <-done:
			switch out.Err {
			case nil:
				completed++
			case ErrDeadline:
				expired++
			default:
				failed++
			}
		default:
			t.Fatalf("lost %d of %d accepted requests", accepted-i, accepted)
		}
	}
	select {
	case out := <-done:
		t.Fatalf("stray outcome %+v", out)
	default:
	}
	if completed+expired+failed != accepted {
		t.Fatalf("outcomes %d+%d+%d do not partition accepted %d",
			completed, expired, failed, accepted)
	}
	if completed == 0 {
		t.Fatal("no requests completed under churn")
	}
	s := f.Snapshot()
	if int(s.Shed) != shed || int(s.Unroutable) != unroutable {
		t.Fatalf("rejection counters (%d,%d) disagree with submit errors (%d,%d)",
			s.Shed, s.Unroutable, shed, unroutable)
	}
	t.Logf("churn drain: %d accepted → %d completed, %d expired, %d failed; %d shed, %d unroutable",
		accepted, completed, expired, failed, shed, unroutable)
}
