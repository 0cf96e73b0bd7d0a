package des

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"autohet/internal/sim"
)

// fixedGaps replays a constant inter-arrival gap — deterministic arrivals
// for recurrence pins.
type fixedGaps struct{ gap float64 }

func (g fixedGaps) Name() string       { return "fixed" }
func (g fixedGaps) NextGapNS() float64 { return g.gap }

// TestShardChainRecurrenceDES pins the exact two-stage chain against a FIFO
// model: request i enters stage 0 at max(arrival, stage-0 free), completes
// one fill later, hops after the transfer, and resolves at stage 1 with
// latency measured from its original arrival — the recurrence the paced
// runtime pins in its TestShardedChainRecurrence.
func TestShardChainRecurrenceDES(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.StageTransferNS = []float64{10}
	cfg.QueueDepth = 4096
	f, err := NewFleet(cfg,
		ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}},
		ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 600, IntervalNS: 200}},
	)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	res, err := f.RunTrace(fixedGaps{gap: 50}, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed %d of %d: %v", res.Completed, n, res)
	}
	free0, free1 := 0.0, 0.0
	want := make([]float64, 0, n)
	for i := 1; i <= n; i++ {
		a := float64(i) * 50
		e0 := math.Max(free0, a)
		c0 := e0 + 1000
		free0 = e0 + 100
		hop := c0 + 10
		e1 := math.Max(free1, hop)
		c1 := e1 + 600
		free1 = e1 + 200
		want = append(want, c1-a)
	}
	got := append([]float64(nil), res.LatenciesNS...)
	sort.Float64s(want)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("latency[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// The chain always has exactly one stage busy per request-slot; two
	// replicas sharing the work leaves a real bubble.
	if res.BubbleFraction <= 0 || res.BubbleFraction >= 1 {
		t.Fatalf("bubble fraction %v outside (0,1)", res.BubbleFraction)
	}
}

// TestShardBudgetSpansStagesDES: budgets anchor at the original arrival, so
// a request that clears stage 0 comfortably still expires when the chain
// overruns.
func TestShardBudgetSpansStagesDES(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 2
	f, err := NewFleet(cfg,
		ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}},
		ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Chain completion is 2000 per isolated request; a 1500 budget clears
	// stage 0 but expires at stage 1.
	res, err := f.RunTrace(fixedGaps{gap: 10_000}, 5, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Expired != 5 || res.Completed != 0 {
		t.Fatalf("expired %d completed %d, want all 5 expired: %v", res.Expired, res.Completed, res)
	}
}

// TestShardWorkersLogByteIdentical: sharded runs always take the serial
// engine (parallelEligible excludes them), so a Workers=4 sharded run must
// produce the byte-identical event log of the Workers=1 run — the log
// contract survives sharding by construction.
func TestShardWorkersLogByteIdentical(t *testing.T) {
	build := func(workers int, log *bytes.Buffer) *Result {
		cfg := DefaultConfig()
		cfg.Shards = 2
		cfg.StageTransferNS = []float64{20}
		cfg.Workers = workers
		cfg.QueueDepth = 4096
		cfg.Log = log
		specs := []ReplicaSpec{
			{Pipeline: &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}},
			{Pipeline: &sim.PipelineResult{FillNS: 1200, IntervalNS: 150}},
			{Pipeline: &sim.PipelineResult{FillNS: 800, IntervalNS: 120}},
			{Pipeline: &sim.PipelineResult{FillNS: 900, IntervalNS: 110}},
		}
		f, err := NewFleet(cfg, specs...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(Workload{ArrivalRate: 3e6, Requests: 800, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	var serial, parallel bytes.Buffer
	r1 := build(1, &serial)
	r4 := build(4, &parallel)
	if r1.Lanes != 1 || r4.Lanes != 1 {
		t.Fatalf("lanes %d/%d, want sharded runs pinned to the serial engine", r1.Lanes, r4.Lanes)
	}
	if serial.Len() == 0 {
		t.Fatal("empty event log")
	}
	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("workers=4 sharded log diverges from workers=1 (%d vs %d bytes)", parallel.Len(), serial.Len())
	}
}

// Sharded routing splits replicas across stages round-robin within each
// stage, and only the final stage resolves requests.
func TestShardStageRouting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.QueueDepth = 4096
	pr := sim.PipelineResult{FillNS: 1000, IntervalNS: 100}
	specs := make([]ReplicaSpec, 4)
	for i := range specs {
		p := pr
		specs[i] = ReplicaSpec{Pipeline: &p}
	}
	f, err := NewFleet(cfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	if f.replicas[0].stage != 0 || f.replicas[1].stage != 0 || f.replicas[2].stage != 1 || f.replicas[3].stage != 1 {
		t.Fatalf("stage split %d,%d,%d,%d", f.replicas[0].stage, f.replicas[1].stage, f.replicas[2].stage, f.replicas[3].stage)
	}
	const n = 400
	res, err := f.Run(Workload{ArrivalRate: 2e6, Requests: n, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed %d of %d: %v", res.Completed, n, res)
	}
	for _, r := range f.replicas {
		if r.served == 0 {
			t.Fatalf("replica %s served nothing", r.name)
		}
	}
	if f.replicas[0].served+f.replicas[1].served != n || f.replicas[2].served+f.replicas[3].served != n {
		t.Fatalf("per-stage served %d+%d, %d+%d; want %d each stage",
			f.replicas[0].served, f.replicas[1].served, f.replicas[2].served, f.replicas[3].served, n)
	}
}

func TestShardValidationDES(t *testing.T) {
	pr := func() *sim.PipelineResult { return &sim.PipelineResult{FillNS: 1000, IntervalNS: 100} }
	cases := []func(*Config){
		func(c *Config) { c.Shards = 3 },                                      // more stages than replicas
		func(c *Config) { c.Shards = -1 },                                     // negative
		func(c *Config) { c.Shards = 2; c.StageTransferNS = []float64{1, 2} }, // wrong transfer length
		func(c *Config) { c.Shards = 2; c.StageTransferNS = []float64{-4} },   // negative transfer
		func(c *Config) { c.Shards = 2; c.Clusters = 2 },                      // clustered routing
	}
	for i, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := NewFleet(cfg, ReplicaSpec{Pipeline: pr()}, ReplicaSpec{Pipeline: pr()}); err == nil {
			t.Fatalf("case %d: config must be rejected", i)
		}
	}
}
