package des

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"autohet/internal/chaos"
	"autohet/internal/des/trace"
	"autohet/internal/fault"
	"autohet/internal/sim"
)

// Golden event-log regression: the scenarios below were captured on the
// pre-arena engine (PR 6-8 era, pointer-heap *Timer engine) and frozen as
// SHA-256 hashes in testdata/golden_logs.json. Any engine or fleet change
// that shifts a single byte of a serial (workers=1) event log fails here —
// this is the "workers=1 remains bit-identical to the old engine" leg of
// the determinism contract.
//
// Regenerating (only when a determinism-breaking change is intentional):
//
//	AUTOHET_WRITE_GOLDENS=1 go test -run TestWriteGoldenEventLogs ./internal/des

// goldenScenario is one frozen simulation recipe. Configs here must never
// change; add new scenarios instead of editing existing ones.
type goldenScenario struct {
	name     string
	requests int
	budgetNS float64
	cfg      func() Config
	specs    func() []ReplicaSpec
	gen      func() trace.Generator
	// prep, when set, edits the built fleet before the run (state no
	// Config or ReplicaSpec can express).
	prep func(*Fleet)
}

// hetSpecs builds a heterogeneous fleet from four pipeline shapes.
func hetSpecs(n int) []ReplicaSpec {
	shapes := []sim.PipelineResult{
		{FillNS: 1000, IntervalNS: 100},
		{FillNS: 2500, IntervalNS: 160},
		{FillNS: 600, IntervalNS: 80},
		{FillNS: 4000, IntervalNS: 250},
	}
	specs := make([]ReplicaSpec, n)
	for i := range specs {
		pr := shapes[i%len(shapes)]
		specs[i] = ReplicaSpec{Pipeline: &pr}
	}
	return specs
}

func goldenScenarios() []goldenScenario {
	return []goldenScenario{
		{
			// The full serial feature set: p2c dispatch sampling, jsq cluster
			// routing, batching, autoscaling, admission control.
			name:     "mixed",
			requests: 20000,
			budgetNS: 50000,
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.Policy = PowerOfTwo
				cfg.ClusterPolicy = JoinShortestQueue
				cfg.Clusters = 4
				cfg.MaxBatch = 4
				cfg.QueueDepth = 8
				cfg.Scaler = TargetUtilization{Target: 0.7, Min: 2}
				cfg.ControlPeriodNS = 1e6
				cfg.Admit = QueueCap{MaxQueuedPerActive: 6}
				return cfg
			},
			specs: func() []ReplicaSpec { return homogeneous(16, 2000, 100) },
			gen:   func() trace.Generator { return trace.Bursty(1.2e8, 1.9, 5e5, 11) },
		},
		{
			// Chaos storm with the full resilience stack (retry, hedge,
			// breakers, brownout) — serial-only features.
			name:     "resilience_storm",
			requests: 20000,
			budgetNS: 50000,
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.Policy = PowerOfTwo
				cfg.ClusterPolicy = JoinShortestQueue
				cfg.Clusters = 4
				cfg.MaxBatch = 4
				cfg.QueueDepth = 16
				cfg.StatsWindowNS = 1e5
				cfg.Resilience = chaos.DefaultResilience()
				cfg.Chaos = chaos.Merge(
					chaos.CrashStorm(2e5, 2e5, names(16), 0.25, 21),
					chaos.SlowStorm(3e5, 2e5, names(16), 0.125, 20, 21),
				)
				return cfg
			},
			specs: func() []ReplicaSpec { return homogeneous(16, 2000, 100) },
			gen:   func() trace.Generator { return trace.Bursty(1e8, 1.9, 5e5, 17) },
		},
		{
			// Shardable recipe: round-robin cluster routing, jsq within the
			// cluster, heterogeneous replicas, batching, budgets.
			name:     "shard_plain",
			requests: 20000,
			budgetNS: 60000,
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.Policy = JoinShortestQueue
				cfg.ClusterPolicy = RoundRobin
				cfg.Clusters = 8
				cfg.MaxBatch = 4
				cfg.QueueDepth = 32
				return cfg
			},
			specs: func() []ReplicaSpec { return hetSpecs(32) },
			gen:   func() trace.Generator { return trace.Bursty(1.5e8, 1.8, 4e5, 23) },
		},
		{
			// Shardable recipe under a crash + fail-slow storm with windowed
			// stats: the chaos-mid-storm parallel determinism anchor.
			name:     "shard_storm",
			requests: 20000,
			budgetNS: 80000,
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.Policy = LeastOutstanding
				cfg.ClusterPolicy = RoundRobin
				cfg.Clusters = 8
				cfg.MaxBatch = 2
				cfg.QueueDepth = 64
				cfg.StatsWindowNS = 2e5
				cfg.Chaos = chaos.Merge(
					chaos.CrashStorm(3e5, 3e5, names(32), 0.25, 7),
					chaos.SlowStorm(4e5, 2e5, names(32), 0.25, 15, 7),
				)
				return cfg
			},
			specs: func() []ReplicaSpec { return hetSpecs(32) },
			gen:   func() trace.Generator { return trace.Poisson(1.4e8, 29) },
		},
		{
			// Shardable recipe with the autoscaler in the loop: control ticks
			// are the cross-lane synchronization points.
			name:     "shard_scaler",
			requests: 20000,
			budgetNS: 0,
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.Policy = JoinShortestQueue
				cfg.ClusterPolicy = RoundRobin
				cfg.Clusters = 8
				cfg.QueueDepth = 1 << 14
				cfg.Scaler = TargetUtilization{Target: 0.7, Min: 4}
				cfg.ControlPeriodNS = 5e4
				return cfg
			},
			specs: func() []ReplicaSpec { return homogeneous(32, 2000, 100) },
			gen:   func() trace.Generator { return trace.Diurnal(1.5e8, 0.8, 2e6, 37) },
		},
		{
			// Pure round-robin at both levels under a heavy-tail trace.
			name:     "shard_rr",
			requests: 20000,
			budgetNS: 0,
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.Policy = RoundRobin
				cfg.ClusterPolicy = RoundRobin
				cfg.Clusters = 6
				cfg.QueueDepth = 128
				return cfg
			},
			specs: func() []ReplicaSpec { return hetSpecs(24) },
			gen:   func() trace.Generator { return trace.Pareto(1.2e8, 1.5, 41) },
		},
		{
			// The perfbench fleet-flat shape at small size: one cluster, jsq,
			// four pipeline stages with 0.1 ms hops. Every pick is a
			// least-score pick over one stage's 16 replicas.
			name:     "flat_stages",
			requests: 8000,
			budgetNS: 0,
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.Policy = JoinShortestQueue
				cfg.ClusterPolicy = RoundRobin
				cfg.QueueDepth = 64
				cfg.Shards = 4
				cfg.StageTransferNS = []float64{1e5, 1e5, 1e5}
				return cfg
			},
			specs: func() []ReplicaSpec { return homogeneous(64, 2000, 100) },
			gen:   func() trace.Generator { return trace.Bursty(1.1e8, 1.9, 5e5, 43) },
		},
		{
			// Least-outstanding at both levels over faulty replicas: health
			// below 1 (some equal, so equal scores tie on index), repair
			// sweeps raising it mid-run, batching so in-flight work counts,
			// and autoscaler deactivations.
			name:     "lo_faults_scaler",
			requests: 20000,
			budgetNS: 60000,
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.Policy = LeastOutstanding
				cfg.ClusterPolicy = LeastOutstanding
				cfg.Clusters = 4
				cfg.MaxBatch = 2
				cfg.QueueDepth = 32
				cfg.HealthSweepNS = 2e5
				cfg.Scaler = TargetUtilization{Target: 0.7, Min: 8}
				cfg.ControlPeriodNS = 1e5
				return cfg
			},
			specs: func() []ReplicaSpec {
				specs := hetSpecs(32)
				rates := []float64{0, 0.002, 0.005, 0.002, 0.0025, 0, 0.008, 0.005}
				for i := range specs {
					if r := rates[i%len(rates)]; r > 0 {
						specs[i].Faults = &fault.Model{StuckAtZero: r, Seed: int64(i)}
					}
					if i%5 == 0 {
						specs[i].Repair = &RepairSpec{Capacity: 0.003, MissRate: 0.5}
					}
				}
				return specs
			},
			gen: func() trace.Generator { return trace.Bursty(1.2e8, 1.8, 4e5, 47) },
		},
		{
			// Jsq with subnormal health: such a replica scores +Inf, so it
			// loses every pick to a finite score, and a cluster whose every
			// replica is subnormal picks its first candidate. The health
			// formula cannot reach a subnormal, so prep sets it.
			name:     "jsq_subnormal",
			requests: 20000,
			budgetNS: 0,
			cfg: func() Config {
				cfg := DefaultConfig()
				cfg.Policy = JoinShortestQueue
				cfg.ClusterPolicy = JoinShortestQueue
				cfg.Clusters = 3
				cfg.QueueDepth = 16
				return cfg
			},
			specs: func() []ReplicaSpec { return homogeneous(12, 2000, 100) },
			gen:   func() trace.Generator { return trace.Bursty(8e7, 1.9, 5e5, 53) },
			prep: func(f *Fleet) {
				for _, i := range []int{1, 8, 9, 10, 11} {
					f.replicas[i].health = 5e-324
				}
				f.refreshDispatch()
			},
		},
	}
}

// runGoldenScenario executes one scenario with logging on and returns the
// event log.
func runGoldenScenario(t *testing.T, sc goldenScenario) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	cfg := sc.cfg()
	cfg.Log = &buf
	f, err := NewFleet(cfg, sc.specs()...)
	if err != nil {
		t.Fatal(err)
	}
	if sc.prep != nil {
		sc.prep(f)
	}
	res, err := f.RunTrace(sc.gen(), sc.requests, sc.budgetNS)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	if buf.Len() == 0 {
		t.Fatalf("%s: empty event log", sc.name)
	}
	return &buf
}

// goldenEntry is one frozen log fingerprint.
type goldenEntry struct {
	SHA256 string `json:"sha256"`
	Bytes  int    `json:"bytes"`
}

const goldenPath = "testdata/golden_logs.json"

func readGoldens(t *testing.T) map[string]goldenEntry {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (capture with AUTOHET_WRITE_GOLDENS=1): %v", err)
	}
	var m map[string]goldenEntry
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func logDigest(buf *bytes.Buffer) goldenEntry {
	sum := sha256.Sum256(buf.Bytes())
	return goldenEntry{SHA256: hex.EncodeToString(sum[:]), Bytes: buf.Len()}
}

// TestWriteGoldenEventLogs regenerates the golden file. Gated behind an env
// var so a routine test run can never silently rewrite the contract.
func TestWriteGoldenEventLogs(t *testing.T) {
	if os.Getenv("AUTOHET_WRITE_GOLDENS") == "" {
		t.Skip("set AUTOHET_WRITE_GOLDENS=1 to regenerate golden logs")
	}
	m := map[string]goldenEntry{}
	for _, sc := range goldenScenarios() {
		m[sc.name] = logDigest(runGoldenScenario(t, sc))
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenEventLogs asserts every scenario's serial event log still hashes
// to its pre-arena-engine capture.
func TestGoldenEventLogs(t *testing.T) {
	goldens := readGoldens(t)
	for _, sc := range goldenScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			want, ok := goldens[sc.name]
			if !ok {
				t.Fatalf("no golden for %s (capture with AUTOHET_WRITE_GOLDENS=1)", sc.name)
			}
			got := logDigest(runGoldenScenario(t, sc))
			if got != want {
				t.Fatalf("event log diverged from the pre-arena engine: got %d bytes %s, want %d bytes %s",
					got.Bytes, got.SHA256, want.Bytes, want.SHA256)
			}
		})
	}
}
