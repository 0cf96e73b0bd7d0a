package fleet

import (
	"testing"

	"autohet/internal/chaos"
	"autohet/internal/sim"
)

func TestCrashBouncesQueueAndRestartHeals(t *testing.T) {
	const n = 4
	cfg := frozen(JoinShortestQueue, 8)
	// a crashes once its n requests are staged and is back before the
	// final arrival.
	cfg.Chaos = crashBetween("a", (n+0.5)*slot, (2*n+0.5)*slot)
	f := mustNew(t, cfg,
		ReplicaSpec{Name: "a", Pipeline: fastPipeline()},
		ReplicaSpec{Name: "b", Pipeline: fastPipeline()})
	s := stage(t, f, 2*n+1)
	s.queues([]int{n, 0})
	stepTo(f, (n+0.5)*slot)
	if got := queued(f); got[0] != 0 || got[1] != n {
		t.Fatalf("queues after crash %v, want a's %d bounced to b", got, n)
	}
	// Four more fill b's batch of 8.
	for i := 0; i < n; i++ {
		s.arrive()
	}
	outs := outcomes(t, f)
	for id := 0; id < n; id++ {
		if o := outs[id]; o.end != "served" || o.replica != "b" || o.retries != 1 {
			t.Fatalf("request %d: %+v, want bounced to b and served", id, o)
		}
	}
	// Restart: jsq sends the next request to the empty a again.
	if got := s.lastPick(); got != "a" {
		t.Fatalf("restarted replica not picked (got %q)", got)
	}
}

func TestSlowAndLinkStretchService(t *testing.T) {
	cfg := unpaced()
	cfg.Chaos = chaos.Scripted(
		chaos.Event{AtNS: 0, Kind: chaos.Slow, Target: "a", Value: 3},
		chaos.Event{AtNS: 0, Kind: chaos.Link, Target: "a", Value: 500},
		// Restore before the second arrival.
		chaos.Event{AtNS: 5e5, Kind: chaos.Slow, Target: "a", Value: 1},
		chaos.Event{AtNS: 5e5, Kind: chaos.Link, Target: "a", Value: 0},
	)
	spec := ReplicaSpec{Name: "a", Pipeline: &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}}
	f := mustNew(t, cfg, spec)
	res := runScript(t, f, 0, 0, 1e6)
	// Degraded: fill·3 + link = 3500; restored: the exact healthy 1000.
	if res.Completed != 2 || res.LatenciesNS[0] != 1000 || res.LatenciesNS[1] != 3500 {
		t.Fatalf("latencies %v, want 1000 (restored) and 3500 (degraded)", res.LatenciesNS)
	}
	cfg.Chaos = chaos.Scripted(chaos.Event{AtNS: 0, Kind: chaos.Slow, Target: "a", Value: 0.5})
	if _, err := New(cfg, spec); err == nil {
		t.Fatal("slow factor < 1 accepted")
	}
}

func TestBreakerOpensOnCrashBounces(t *testing.T) {
	cfg := frozen(RoundRobin, 4)
	cfg.Resilience.Breaker = &chaos.BreakerConfig{FailureThreshold: 3, OpenNS: 1e15}
	cfg.MaxRetries = 5
	// a is down for the first eight arrivals, back for the next six, then
	// crashes with three of them queued and restarts at once.
	cfg.Chaos = chaos.Merge(crashBetween("a", 0, 8.5*slot), crashBetween("a", 14.5*slot, 14.6*slot))
	f := mustNew(t, cfg,
		ReplicaSpec{Name: "a", Pipeline: fastPipeline()},
		ReplicaSpec{Name: "b", Pipeline: fastPipeline()})
	s := stage(t, f, 22)
	// Dispatch filters the crashed replica: all eight go to b (two full
	// batches of 4).
	for i := 0; i < 8; i++ {
		if got := s.lastPick(); got != "b" {
			t.Fatalf("request %d dispatched to %q, want b", i, got)
		}
	}
	// a's breaker saw no traffic, so it is still closed. After the restart
	// round robin queues three requests on each replica; the crash then
	// bounces a's three, failures for a's breaker, which opens.
	for i := 0; i < 6; i++ {
		s.arrive()
	}
	if got := queued(f); got[0] != 3 || got[1] != 3 {
		t.Fatalf("staged queues %v, want 3 and 3", got)
	}
	// The restart heals the crash flag, but the open breaker (cooldown far
	// in the future) keeps dispatch away from a.
	for i := 0; i < 8; i++ {
		if got := s.lastPick(); got != "b" {
			t.Fatalf("open breaker leaked traffic to %q", got)
		}
	}
	// Resilient requests resolve at their virtual completion: the first
	// eight were served by b.
	finish(t, f)
	outs := outcomes(t, f)
	for id := 0; id < 8; id++ {
		if o := outs[id]; o.end != "served" || o.replica != "b" {
			t.Fatalf("request %d: %+v, want served by b", id, o)
		}
	}
}

// Satellite: conservation under churn. A chaos schedule crashes, slows and
// restarts replicas while a paced workload is offered — the run must
// terminate and every request must end exactly one way (served, expired,
// failed, shed or unroutable — never lost), with the live counters
// agreeing.
func TestDrainUnderChurnLosesNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = JoinShortestQueue
	cfg.TimeScale = 0.1
	cfg.MaxBatch = 4
	cfg.BatchTimeoutNS = 1e6
	cfg.HealthSweepNS = -1
	// Rolling churn across the workload's ~1e8 ns virtual span; the tail
	// restarts land while the last requests drain.
	cfg.Chaos = chaos.Scripted(
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
	specs := make([]ReplicaSpec, 4)
	for i := range specs {
		specs[i] = ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 5e5, IntervalNS: 1e5}}
	}
	f := mustNew(t, cfg, specs...)
	const n = 1000
	// 10k req/s against 40k capacity.
	res := mustRun(t, f, Workload{ArrivalRate: 1e4, Requests: n, BudgetNS: 2e7})
	if got := res.Completed + res.Expired + res.Failed + res.Shed + res.Unroutable; got != n {
		t.Fatalf("outcomes %d do not partition the %d offered: %v", got, n, res)
	}
	if res.Completed == 0 || res.ChaosEvents != 10 {
		t.Fatalf("churn run %v: want completions under all 10 chaos events", res)
	}
	s := f.Snapshot()
	if s.Completed != int64(res.Completed) || s.Expired != int64(res.Expired) || s.Failed != int64(res.Failed) ||
		s.Shed != int64(res.Shed) || s.Unroutable != int64(res.Unroutable) {
		t.Fatalf("snapshot %v disagrees with the run %v", s, res)
	}
	for _, r := range s.Replicas {
		if r.Outstanding != 0 {
			t.Fatalf("replica %s still holds %d requests", r.Name, r.Outstanding)
		}
	}
	t.Logf("churn: %v; %d failed, %d unroutable", res, res.Failed, res.Unroutable)
}
