package fleet

import (
	"bytes"
	"math"
	"testing"

	"autohet/internal/sim"
)

// shardedConfig is an unpaced k-stage pipeline config with priced
// transfers between the stages; it logs to a buffer for outcomes.
func shardedConfig(k int, transfers ...float64) Config {
	cfg := unpaced()
	cfg.Log = &bytes.Buffer{}
	cfg.Shards = k
	cfg.StageTransferNS = transfers
	return cfg
}

// TestShardedChainRecurrence pins the exact two-stage recurrence with one
// replica per stage and no batching: request i enters stage 0 at
// max(arrival, stage-0 free), completes one fill later, re-arrives at
// stage 1 after the transfer, and resolves with latency measured from its
// original arrival.
func TestShardedChainRecurrence(t *testing.T) {
	f := mustNew(t, shardedConfig(2, 10),
		ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}},
		ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 600, IntervalNS: 200}},
	)
	const n = 40
	arrivals := ramp(n, 0, 50)
	res := runScript(t, f, 0, arrivals...)

	// Model the chain: stage 0 (fill 1000, interval 100), transfer 10,
	// stage 1 (fill 600, interval 200). Requests traverse in FIFO order.
	free0, free1 := 0.0, 0.0
	want := map[float64]int{}
	for _, a := range arrivals {
		e0 := math.Max(free0, a)
		c0 := e0 + 1000
		free0 = e0 + 100
		hop := c0 + 10
		e1 := math.Max(free1, hop)
		c1 := e1 + 600
		free1 = e1 + 200
		want[c1-a]++
	}
	got := map[float64]int{}
	for _, l := range res.LatenciesNS {
		got[l]++
	}
	for id, o := range outcomes(t, f) {
		if o.end != "served" || o.replica != "r1" {
			t.Fatalf("request %d: %+v, want served by the stage-1 replica", id, o)
		}
	}
	for l, c := range want {
		if got[l] != c {
			t.Fatalf("latency %v appears %d times, want %d\ngot: %v", l, got[l], c, got)
		}
	}
	s := f.Snapshot()
	if s.Completed != n {
		t.Fatalf("completed %d of %d", s.Completed, n)
	}
	if s.Replicas[0].Stage != 0 || s.Replicas[1].Stage != 1 {
		t.Fatalf("stage assignment %d,%d", s.Replicas[0].Stage, s.Replicas[1].Stage)
	}
	// Both stages served every request; only the final stage records
	// fleet-level latencies.
	if s.Replicas[0].Served != n || s.Replicas[1].Served != n {
		t.Fatalf("served %d,%d", s.Replicas[0].Served, s.Replicas[1].Served)
	}
}

// Budgets are measured from the original arrival, so a request can expire
// at a later stage even though stage 0 served it comfortably.
func TestShardedBudgetSpansStages(t *testing.T) {
	f := mustNew(t, shardedConfig(2, 0),
		ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}},
		ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}},
	)
	// Chain completion is 2000; a 1500 budget clears stage 0 (1000) but
	// expires at stage 1.
	runScript(t, f, 1500, 0)
	if o := outcomes(t, f)[0]; o.end != "budget" || o.replica != "r1" {
		t.Fatalf("outcome %+v, want deadline expiry at stage 1", o)
	}
	s := f.Snapshot()
	if s.Expired != 1 || s.Completed != 0 {
		t.Fatalf("snapshot %+v", s)
	}
}

// Multiple replicas per stage split contiguously, and a sharded workload
// run reports a pipeline bubble fraction inside (0,1).
func TestShardedRunBubbleFraction(t *testing.T) {
	cfg := shardedConfig(2, 5)
	cfg.QueueDepth = 4096
	specs := []ReplicaSpec{
		{Pipeline: &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}},
		{Pipeline: &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}},
		{Pipeline: &sim.PipelineResult{FillNS: 900, IntervalNS: 300}},
		{Pipeline: &sim.PipelineResult{FillNS: 900, IntervalNS: 300}},
	}
	res := mustRun(t, mustNew(t, cfg, specs...), Workload{ArrivalRate: 5e6, Requests: 2000})
	if res.Completed != 2000 {
		t.Fatalf("completed %d: %v", res.Completed, res)
	}
	if res.BubbleFraction <= 0 || res.BubbleFraction >= 1 {
		t.Fatalf("bubble fraction %v outside (0,1)", res.BubbleFraction)
	}
}

func TestShardValidation(t *testing.T) {
	if _, err := New(shardedConfig(3), ReplicaSpec{Pipeline: fastPipeline()}, ReplicaSpec{Pipeline: fastPipeline()}); err == nil {
		t.Fatal("more stages than replicas must error")
	}
	if _, err := New(shardedConfig(2, 1, 2), ReplicaSpec{Pipeline: fastPipeline()}, ReplicaSpec{Pipeline: fastPipeline()}); err == nil {
		t.Fatal("wrong transfer vector length must error")
	}
	if _, err := New(shardedConfig(2, -1), ReplicaSpec{Pipeline: fastPipeline()}, ReplicaSpec{Pipeline: fastPipeline()}); err == nil {
		t.Fatal("negative transfer must error")
	}
	cfg := unpaced()
	cfg.Shards = -2
	if _, err := New(cfg, ReplicaSpec{Pipeline: fastPipeline()}); err == nil {
		t.Fatal("negative shards must error")
	}
}
