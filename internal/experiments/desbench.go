package experiments

import (
	"encoding/json"
	"os"
	"runtime"

	"autohet/internal/des"
	"autohet/internal/des/trace"
	"autohet/internal/fleet"
)

// FleetBenchLeg is one measured DES fleet configuration.
type FleetBenchLeg struct {
	Replicas int `json:"replicas"`
	Clusters int `json:"clusters"`
	Requests int `json:"requests"`
	// Workers is des.Config.Workers for this leg; Lanes is how many
	// parallel lanes the run actually used (1 when the sharded path was
	// ineligible or not worthwhile).
	Workers int `json:"workers"`
	Lanes   int `json:"lanes"`
	// Shards is the pipeline-parallel stage count (1 = whole-model
	// replicas). Sharded legs run flat (one cluster) and serial — the
	// engine pins sharded runs to the serial path for log determinism — so
	// they measure the per-hop event cost of chained serving.
	Shards    int   `json:"shards"`
	Completed int   `json:"completed"`
	Shed      int   `json:"shed"`
	Events    int64 `json:"events"`
	// VirtualSeconds is the simulated span; WallSeconds what it cost.
	VirtualSeconds float64 `json:"virtual_seconds"`
	WallSeconds    float64 `json:"wall_seconds"`
	// SpeedupVsWall is virtual over wall — the engine's headline (a
	// wall-paced fleet runtime holds this at 1/TimeScale).
	SpeedupVsWall float64 `json:"speedup_vs_wall"`
	EventsPerSec  float64 `json:"events_per_sec"`
	// RequestsPerSec is simulated requests resolved per wall second.
	RequestsPerSec float64 `json:"requests_per_sec"`
	// AllocsPerEvent is heap allocations per processed event over the whole
	// run (process-wide malloc delta, so build cost amortizes in). The
	// steady-state contract (~0, asserted in internal/des tests) holds on
	// the serial legs; parallel legs pay lane setup up front.
	AllocsPerEvent float64 `json:"allocs_per_event"`
	P99US          float64 `json:"p99_us"`
}

// FleetBench is the JSON document cmd/experiments -bench fleet writes: the
// DES engine driven from laptop scale to the cluster-scale 100k-replica /
// 10M-request recipe, under a bursty MMPP trace with jsq replica routing
// below round-robin cluster routing (the shardable two-level combination),
// sweeping Config.Workers at the 10k-replica size.
type FleetBench struct {
	Seed int64 `json:"seed"`
	// CPUs is GOMAXPROCS during the run — the ceiling on useful Workers.
	CPUs          int    `json:"cpus"`
	Trace         string `json:"trace"`
	Policy        string `json:"policy"`
	ClusterPolicy string `json:"cluster_policy"`
	// FillNS/IntervalNS describe the per-replica service model (100 req/s
	// serving-scale replicas).
	FillNS     float64         `json:"fill_ns"`
	IntervalNS float64         `json:"interval_ns"`
	Load       float64         `json:"load"`
	Legs       []FleetBenchLeg `json:"legs"`
}

// BenchFleet measures DES fleet simulation cost at 100, 1k, 10k, and 100k
// replicas at 70% load. The 10k-replica / 1M-request size is re-run at
// workers 1, 2, 4, and NumCPU to expose the sharded-lane scaling curve; the
// 100k-replica / 10M-request leg runs at NumCPU.
func BenchFleet(seed int64) (*FleetBench, error) {
	ncpu := runtime.GOMAXPROCS(0)
	b := &FleetBench{
		Seed:          seed,
		CPUs:          ncpu,
		Trace:         "bursty",
		Policy:        string(fleet.JoinShortestQueue),
		ClusterPolicy: string(fleet.RoundRobin),
		FillNS:        5e7,
		IntervalNS:    1e7,
		Load:          0.7,
	}
	type legSpec struct {
		replicas, clusters, requests, workers, shards int
	}
	legs := []legSpec{
		{100, 4, 100_000, 1, 1},
		{1_000, 32, 300_000, 1, 1},
	}
	// Sharded serving legs: the same 1k-replica fleet cut into 1, 2, and 4
	// pipeline stages (flat routing, as sharding requires). Each extra stage
	// adds one hop event per request and divides chain capacity by the stage
	// count, so these legs expose the marginal cost of chained dispatch.
	for _, k := range []int{1, 2, 4} {
		legs = append(legs, legSpec{1_000, 1, 300_000, 1, k})
	}
	seen := map[int]bool{}
	for _, w := range []int{1, 2, 4, ncpu} {
		if w < 1 || seen[w] {
			continue
		}
		seen[w] = true
		legs = append(legs, legSpec{10_000, 100, 1_000_000, w, 1})
	}
	legs = append(legs, legSpec{100_000, 1_000, 10_000_000, ncpu, 1})
	for _, l := range legs {
		cfg := des.DefaultConfig()
		cfg.Policy = fleet.JoinShortestQueue
		cfg.ClusterPolicy = fleet.RoundRobin
		cfg.Clusters = l.clusters
		cfg.QueueDepth = 64
		cfg.Seed = seed
		cfg.Workers = l.workers
		capacity := float64(l.replicas) * (1e9 / b.IntervalNS)
		if l.shards > 1 {
			cfg.Shards = l.shards
			// A nominal 0.1 ms NoC hop per stage boundary; the chain's
			// capacity is the slowest stage's, replicas/shards of the total.
			cfg.StageTransferNS = make([]float64, l.shards-1)
			for i := range cfg.StageTransferNS {
				cfg.StageTransferNS[i] = 1e5
			}
			capacity /= float64(l.shards)
		}
		f, err := des.NewFleet(cfg, desSpecs(l.replicas)...)
		if err != nil {
			return nil, err
		}
		rate := b.Load * capacity
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		res, err := f.RunTrace(trace.Bursty(rate, 1.8, 50e6, seed), l.requests, 0)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m1)
		leg := FleetBenchLeg{
			Replicas:       l.replicas,
			Clusters:       l.clusters,
			Requests:       l.requests,
			Workers:        l.workers,
			Lanes:          res.Lanes,
			Shards:         l.shards,
			Completed:      res.Completed,
			Shed:           res.Shed,
			Events:         res.Events,
			VirtualSeconds: res.VirtualNS / 1e9,
			WallSeconds:    res.WallSeconds,
			SpeedupVsWall:  res.SpeedupVsWall,
			EventsPerSec:   res.EventsPerSec,
			P99US:          res.P99NS / 1000,
		}
		if res.Events > 0 {
			leg.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(res.Events)
		}
		if res.WallSeconds > 0 {
			leg.RequestsPerSec = float64(l.requests) / res.WallSeconds
		}
		b.Legs = append(b.Legs, leg)
	}
	return b, nil
}

// WriteJSON writes the benchmark document to path (indented, trailing
// newline), matching the other BENCH_*.json artifacts.
func (b *FleetBench) WriteJSON(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
