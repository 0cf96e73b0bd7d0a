package des

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"autohet/internal/des/trace"
	"autohet/internal/fault"
	"autohet/internal/obs"
	"autohet/internal/sim"
)

func homogeneous(n int, fillNS, intervalNS float64) []ReplicaSpec {
	specs := make([]ReplicaSpec, n)
	for i := range specs {
		specs[i] = ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: fillNS, IntervalNS: intervalNS}}
	}
	return specs
}

// conserve asserts the request conservation invariant every run must hold.
func conserve(t *testing.T, r *Result) {
	t.Helper()
	if r.Completed+r.Shed+r.Unroutable+r.Expired+r.Failed != r.Offered {
		t.Fatalf("conservation: %d completed + %d shed + %d unroutable + %d expired + %d failed != %d offered",
			r.Completed, r.Shed, r.Unroutable, r.Expired, r.Failed, r.Offered)
	}
	if len(r.LatenciesNS) != r.Completed {
		t.Fatalf("%d latencies for %d completions", len(r.LatenciesNS), r.Completed)
	}
}

// Same config, same seeds → byte-identical event log. This is the
// determinism contract on the full simulation (dispatch sampler, batching,
// autoscaler, admission, shedding all in play), not just the engine.
func TestDeterministicEventLog(t *testing.T) {
	run := func(seed int64) *bytes.Buffer {
		var buf bytes.Buffer
		cfg := DefaultConfig()
		cfg.Policy = PowerOfTwo
		cfg.ClusterPolicy = JoinShortestQueue
		cfg.Clusters = 4
		cfg.MaxBatch = 4
		cfg.QueueDepth = 8
		cfg.Scaler = TargetUtilization{Target: 0.7, Min: 2}
		cfg.ControlPeriodNS = 1e6
		cfg.Admit = QueueCap{MaxQueuedPerActive: 6}
		cfg.Log = &buf
		f, err := NewFleet(cfg, homogeneous(16, 2000, 100)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.RunTrace(trace.Bursty(1.2e8, 1.9, 5e5, seed), 20000, 50000)
		if err != nil {
			t.Fatal(err)
		}
		conserve(t, res)
		return &buf
	}
	a, b := run(11), run(11)
	if a.Len() == 0 {
		t.Fatal("empty event log")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same seed produced different event logs (%d vs %d bytes)", a.Len(), b.Len())
	}
	if c := run(12); bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different trace seeds produced identical event logs")
	}
}

// An overprovisioned fleet under light load shrinks; the scaler's actions
// show up in the result and the active set lands near the utilization
// target rather than the provisioned size.
func TestAutoscalerShrinksIdleFleet(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clusters = 4
	cfg.Scaler = TargetUtilization{Target: 0.7, Min: 2}
	cfg.ControlPeriodNS = 1e6
	cfg.QueueDepth = 1 << 14
	// 32 replicas of 1e7 rps each, offered 2e7 rps: utilization 1/16.
	f, err := NewFleet(cfg, homogeneous(32, 1000, 100)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunTrace(trace.Poisson(2e7, 3), 50000, 0)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	if res.ScaleActions == 0 {
		t.Fatal("no scale actions under 16x overprovisioning")
	}
	active := 0
	for _, cl := range res.Clusters {
		active += cl.Active
	}
	if active >= 32 || active < 2 {
		t.Fatalf("final active set %d, want shrunk into [2, 32)", active)
	}
}

// Admission control sheds when the backlog cap trips, and those sheds are
// attributed to the hook.
func TestAdmissionControlSheds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 1 << 14
	cfg.Admit = QueueCap{MaxQueuedPerActive: 4}
	// One 1e7-rps replica offered 4e7 rps: the backlog crosses 4 fast.
	f, err := NewFleet(cfg, homogeneous(1, 1000, 100)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunTrace(trace.Poisson(4e7, 5), 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	if res.AdmissionShed == 0 || int64(res.Shed) != res.AdmissionShed {
		t.Fatalf("admission shed %d of %d total sheds, want all sheds from the hook",
			res.AdmissionShed, res.Shed)
	}
	if res.Completed == 0 {
		t.Fatal("admission control shed everything")
	}
}

// Latency budgets expire requests whose completion would overshoot, and
// expired members don't consume pipeline slots.
func TestBudgetExpiry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 1 << 14
	f, err := NewFleet(cfg, homogeneous(1, 1000, 100)...)
	if err != nil {
		t.Fatal(err)
	}
	// Overloaded 1.5x with a budget little above the no-wait latency: the
	// growing backlog pushes later requests past it.
	res, err := f.RunTrace(trace.Poisson(1.5e7, 7), 5000, 3000)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	if res.Expired == 0 {
		t.Fatal("no expirations under overload with a tight budget")
	}
	for _, l := range res.LatenciesNS {
		if l > 3000 {
			t.Fatalf("completed request latency %.1f ns exceeds 3000 ns budget", l)
		}
	}
}

// Bounded queues shed overload once full (no Admit hook involved).
func TestQueueFullSheds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 4
	f, err := NewFleet(cfg, homogeneous(2, 1000, 100)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunTrace(trace.Poisson(8e7, 9), 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	if res.Shed == 0 {
		t.Fatal("no sheds with depth-4 queues at 4x overload")
	}
	if res.AdmissionShed != 0 {
		t.Fatal("admission sheds counted without an Admit hook")
	}
}

// Faulted replicas above the degrade threshold take no traffic; the healthy
// remainder serves everything.
func TestDegradedReplicaRoutesAround(t *testing.T) {
	specs := homogeneous(4, 1000, 100)
	specs[0].Name = "bad"
	specs[0].Faults = &fault.Model{StuckAtZero: 0.05, Seed: 1} // 5x the 0.01 threshold
	cfg := DefaultConfig()
	cfg.Policy = JoinShortestQueue
	cfg.QueueDepth = 1 << 14
	f, err := NewFleet(cfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	f.log = &buf
	res, err := f.RunTrace(trace.Poisson(1e7, 3), 3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	if res.Shed != 0 || res.Completed != 3000 {
		t.Fatalf("healthy remainder should absorb the load: %v", res)
	}
	if bytes.Contains(buf.Bytes(), []byte("r=bad")) {
		t.Fatal("traffic routed to a replica degraded past the threshold")
	}
}

// Cluster partitioning is contiguous and near-equal, and per-cluster served
// counts sum to the fleet total.
func TestClusterPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clusters = 3
	cfg.Policy = RoundRobin
	cfg.QueueDepth = 1 << 14
	f, err := NewFleet(cfg, homogeneous(10, 1000, 100)...)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{len(f.clusters[0].replicas), len(f.clusters[1].replicas), len(f.clusters[2].replicas)}
	if sizes[0]+sizes[1]+sizes[2] != 10 {
		t.Fatalf("cluster sizes %v don't partition 10 replicas", sizes)
	}
	for _, s := range sizes {
		if s < 3 || s > 4 {
			t.Fatalf("cluster sizes %v, want near-equal (3 or 4)", sizes)
		}
	}
	res, err := f.RunTrace(trace.Poisson(5e7, 5), 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	var served int64
	for _, cl := range res.Clusters {
		served += cl.Served
	}
	if served != int64(res.Completed) {
		t.Fatalf("cluster served sum %d != completed %d", served, res.Completed)
	}
}

// A Fleet is single-use.
func TestFleetSingleUse(t *testing.T) {
	f, err := NewFleet(DefaultConfig(), homogeneous(1, 1000, 100)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunTrace(trace.Poisson(1e6, 1), 10, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunTrace(trace.Poisson(1e6, 1), 10, 0); err == nil {
		t.Fatal("second RunTrace accepted")
	}
}

// A negative or non-finite latency budget is a config error at both run
// entry points, checked before the run starts; 0 means no budget.
func TestRunRejectsBadBudget(t *testing.T) {
	var mu sync.Mutex
	for _, tc := range []struct {
		name   string
		budget float64
		ok     bool
	}{
		{"none", 0, true},
		{"positive", 5000, true},
		{"negative", -5, false},
		{"NaN", math.NaN(), false},
		{"+Inf", math.Inf(1), false},
		{"-Inf", math.Inf(-1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := NewFleet(DefaultConfig(), homogeneous(1, 1000, 100)...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.RunTrace(trace.Poisson(1e6, 1), 10, tc.budget); (err == nil) != tc.ok {
				t.Errorf("RunTrace budget %v: err %v, want ok=%t", tc.budget, err, tc.ok)
			}
			o, err := NewOnline(DefaultConfig(), &mu, homogeneous(1, 1000, 100)...)
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Begin(trace.Poisson(1e6, 1), 10, tc.budget); (err == nil) != tc.ok {
				t.Errorf("Begin budget %v: err %v, want ok=%t", tc.budget, err, tc.ok)
			}
			if !tc.ok {
				// The rejection left both fleets unused.
				if _, err := f.RunTrace(trace.Poisson(1e6, 1), 10, 0); err != nil {
					t.Errorf("RunTrace after a rejected budget: %v", err)
				}
				if err := o.Begin(trace.Poisson(1e6, 1), 10, 0); err != nil {
					t.Errorf("Begin after a rejected budget: %v", err)
				}
			}
		})
	}
}

// The obs families the CI smoke and dashboards depend on exist after a run.
func TestMetricsRegistered(t *testing.T) {
	f, err := NewFleet(DefaultConfig(), homogeneous(2, 1000, 100)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.RunTrace(trace.Poisson(1e6, 1), 100, 0); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"autohet_des_events_total":        false,
		"autohet_fleet_requests_total":    false,
		"autohet_des_speedup":             false,
		"autohet_des_cluster_queue_depth": false,
	}
	for _, fam := range obs.Default.Families() {
		if _, ok := want[fam]; ok {
			want[fam] = true
		}
	}
	for fam, seen := range want {
		if !seen {
			t.Errorf("metric family %s not registered", fam)
		}
	}
}

// autohet_des_events_total grows by exactly Result.Events per run, for a
// serial run, a two-lane run and a paced online run alike.
func TestEventsMetricPerRun(t *testing.T) {
	eventsTotal := func() int64 { return obs.Default.JSON().Counters["autohet_des_events_total"] }
	lanes := DefaultConfig()
	lanes.Clusters, lanes.Workers = 4, 2
	var mu sync.Mutex
	for _, tc := range []struct {
		name  string
		lanes int
		run   func() (*Result, error)
	}{
		{"serial", 1, func() (*Result, error) {
			f, err := NewFleet(DefaultConfig(), homogeneous(2, 1000, 100)...)
			if err != nil {
				return nil, err
			}
			return f.RunTrace(trace.Poisson(1e6, 1), 100, 0)
		}},
		{"lanes", 2, func() (*Result, error) {
			f, err := NewFleet(lanes, homogeneous(8, 1000, 100)...)
			if err != nil {
				return nil, err
			}
			return f.RunTrace(trace.Poisson(4e6, 1), 1000, 0)
		}},
		{"paced", 1, func() (*Result, error) {
			f, err := NewOnline(DefaultConfig(), &mu, homogeneous(2, 1000, 100)...)
			if err != nil {
				return nil, err
			}
			return pacedRun(f, &mu, trace.Poisson(1e6, 1), 100)
		}},
	} {
		before := eventsTotal()
		res, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Lanes != tc.lanes {
			t.Fatalf("%s: ran %d lanes, want %d", tc.name, res.Lanes, tc.lanes)
		}
		if got := eventsTotal() - before; got != res.Events || got == 0 {
			t.Errorf("%s: autohet_des_events_total grew by %d, the run fired %d events", tc.name, got, res.Events)
		}
	}
}

// A 1k-replica fleet under a heavy-tail trace completes quickly and reports
// a large virtual-over-wall speedup — the engine's reason to exist. (The
// 10k-replica × 1M-request recipe runs in the benchmark and CI smoke.)
func TestClusterScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster-scale smoke skipped in -short")
	}
	cfg := DefaultConfig()
	cfg.Clusters = 32
	cfg.Policy = JoinShortestQueue
	cfg.ClusterPolicy = JoinShortestQueue
	cfg.QueueDepth = 64
	// Serving-scale replicas: 50 ms fill, 100 rps capacity each — the
	// regime where simulated seconds dwarf the wall cost of simulating them.
	f, err := NewFleet(cfg, homogeneous(1000, 5e7, 1e7)...)
	if err != nil {
		t.Fatal(err)
	}
	// 70% of the 1e5 rps aggregate capacity, heavy-tail gaps.
	res, err := f.RunTrace(trace.Pareto(7e4, 1.5, 13), 200000, 0)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	if res.Completed < 190000 {
		t.Fatalf("only %d of 200000 completed at 70%% load", res.Completed)
	}
	if !raceEnabled && res.SpeedupVsWall < 1 {
		t.Fatalf("virtual/wall speedup %.2f, want > 1", res.SpeedupVsWall)
	}
	if res.Events < int64(res.Offered) {
		t.Fatalf("%d events for %d requests", res.Events, res.Offered)
	}
}

// NewFleet rejects scaler and admitter parameters they cannot act on:
// before, a target outside (0,1] silently became 0.7 and a negative or NaN
// queue cap silently admitted everything.
func TestScaleAdmitValidation(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		name   string
		scaler Scaler
		admit  Admitter
		ok     bool
	}{
		{"target 0.7", TargetUtilization{Target: 0.7}, nil, true},
		{"target 1", TargetUtilization{Target: 1}, nil, true},
		{"target 0", TargetUtilization{}, nil, false},
		{"target 2", TargetUtilization{Target: 2}, nil, false},
		{"target -0.5", TargetUtilization{Target: -0.5}, nil, false},
		{"target NaN", TargetUtilization{Target: nan}, nil, false},
		{"target via pointer", &TargetUtilization{Target: 2}, nil, false},
		{"queue cap 6", nil, QueueCap{MaxQueuedPerActive: 6}, true},
		{"queue cap 0", nil, QueueCap{}, true},
		{"queue cap -1", nil, QueueCap{MaxQueuedPerActive: -1}, false},
		{"queue cap NaN", nil, QueueCap{MaxQueuedPerActive: nan}, false},
	} {
		cfg := DefaultConfig()
		cfg.Scaler, cfg.Admit = tc.scaler, tc.admit
		if _, err := NewFleet(cfg, homogeneous(2, 1000, 100)...); (err == nil) != tc.ok {
			t.Errorf("%s: NewFleet error %v, want ok=%t", tc.name, err, tc.ok)
		}
	}
}
