package des_test

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"autohet/internal/chaos"
	"autohet/internal/des"
	"autohet/internal/fault"
	"autohet/internal/fleet"
	"autohet/internal/serving"
	"autohet/internal/sim"
)

// One core, two drivers: the trace driver (des.Fleet.RunTrace) pops events
// as fast as the host allows, the paced runtime (internal/fleet) pops them
// on the wall clock. Both must be the same model, and the model must be
// serving.Serve's where they overlap. Three rungs, in decreasing
// strictness:
//
//  1. A solo replica applies serving.Serve's pipelined recurrence with a
//     bit-identical arrival trace, so every latency statistic matches to
//     float noise.
//  2. Round-robin, batched-service and sharded fleets agree between the
//     paced runtime and the trace driver request for request.
//  3. Queue-aware policies (jsq/lo/p2c) read the core's virtual backlog
//     under both drivers, so pacing cannot change their picks; the
//     distributions have to agree to a few percent (in fact exactly).

func statPairs(got *des.Result, meanNS, p50, p95, p99, maxNS float64) []struct {
	name      string
	got, want float64
} {
	return []struct {
		name      string
		got, want float64
	}{
		{"mean", got.MeanNS, meanNS},
		{"p50", got.P50NS, p50},
		{"p95", got.P95NS, p95},
		{"p99", got.P99NS, p99},
		{"max", got.MaxNS, maxNS},
	}
}

// TestCrossCheckServingSolo: rung 1.
func TestCrossCheckServingSolo(t *testing.T) {
	pr := &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}
	for _, load := range []float64{0.3, 0.8, 1.5} {
		w := serving.Workload{ArrivalRate: load * 1e9 / pr.IntervalNS, Requests: 3000, Seed: 9}
		want, err := serving.Serve(pr, w)
		if err != nil {
			t.Fatal(err)
		}

		cfg := des.DefaultConfig()
		cfg.QueueDepth = w.Requests
		f, err := des.NewFleet(cfg, fleet.ReplicaSpec{Name: "solo", Pipeline: pr})
		if err != nil {
			t.Fatal(err)
		}
		got, err := f.Run(fleet.Workload{ArrivalRate: w.ArrivalRate, Requests: w.Requests, Seed: w.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if got.Completed != want.Completed || got.Shed != 0 {
			t.Fatalf("load %.0f%%: des completed %d (shed %d), serving completed %d",
				100*load, got.Completed, got.Shed, want.Completed)
		}
		for _, p := range statPairs(got, want.MeanNS, want.P50NS, want.P95NS, want.P99NS, want.MaxNS) {
			if math.Abs(p.got-p.want) > 1e-9*math.Max(1, p.want) {
				t.Errorf("load %.0f%% %s: des %.6f ns, serving %.6f ns", 100*load, p.name, p.got, p.want)
			}
		}
	}
}

// specs16 is a heterogeneous 16-replica fleet: four pipeline shapes with
// distinct fill/interval ratios.
func specs16() []fleet.ReplicaSpec {
	shapes := []sim.PipelineResult{
		{FillNS: 1000, IntervalNS: 100},
		{FillNS: 2500, IntervalNS: 160},
		{FillNS: 600, IntervalNS: 80},
		{FillNS: 4000, IntervalNS: 250},
	}
	specs := make([]fleet.ReplicaSpec, 16)
	for i := range specs {
		pr := shapes[i%len(shapes)]
		specs[i] = fleet.ReplicaSpec{Pipeline: &pr}
	}
	return specs
}

// runBoth drives the paced runtime (at TimeScale 1e-9, effectively
// unpaced) and the DES fleet over the same workload and policy.
func runBoth(t *testing.T, policy fleet.Policy, specs []fleet.ReplicaSpec, w fleet.Workload) (*fleet.Result, *des.Result) {
	t.Helper()
	gcfg := fleet.DefaultConfig()
	gcfg.TimeScale = 1e-9
	gcfg.QueueDepth = w.Requests
	gcfg.Policy = policy
	gf, err := fleet.New(gcfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fleet.Run(gf, w)
	if err != nil {
		t.Fatal(err)
	}

	dcfg := des.DefaultConfig()
	dcfg.QueueDepth = w.Requests
	dcfg.Policy = policy
	df, err := des.NewFleet(dcfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := df.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	return want, got
}

// TestCrossCheckGoroutineRoundRobin: rung 2 — exact distribution parity.
func TestCrossCheckGoroutineRoundRobin(t *testing.T) {
	w := fleet.Workload{ArrivalRate: 4e7, Requests: 4000, Seed: 5}
	want, got := runBoth(t, fleet.RoundRobin, specs16(), w)
	if got.Completed != want.Completed || got.Shed != want.Shed {
		t.Fatalf("des %d completed %d shed, paced %d completed %d shed",
			got.Completed, got.Shed, want.Completed, want.Shed)
	}
	for _, p := range statPairs(got, want.MeanNS, want.P50NS, want.P95NS, want.P99NS, want.MaxNS) {
		if math.Abs(p.got-p.want) > 1e-6*math.Max(1, p.want) {
			t.Errorf("%s: des %.6f ns, paced %.6f ns", p.name, p.got, p.want)
		}
	}
}

// TestCrossCheckGoroutineQueueAware: rung 3 — statistical parity for the
// queue-aware policies on a homogeneous fleet at moderate load, where the
// fill term dominates whatever the assignment noise contributes.
func TestCrossCheckGoroutineQueueAware(t *testing.T) {
	pr := sim.PipelineResult{FillNS: 10000, IntervalNS: 100}
	specs := make([]fleet.ReplicaSpec, 8)
	for i := range specs {
		p := pr
		specs[i] = fleet.ReplicaSpec{Pipeline: &p}
	}
	// Half the aggregate capacity of 8 × 1e7 rps.
	w := fleet.Workload{ArrivalRate: 4e7, Requests: 4000, Seed: 7}
	for _, policy := range []fleet.Policy{fleet.JoinShortestQueue, fleet.LeastOutstanding, fleet.PowerOfTwo} {
		want, got := runBoth(t, policy, specs, w)
		if got.Completed != want.Completed {
			t.Fatalf("%s: des completed %d, paced %d", policy, got.Completed, want.Completed)
		}
		for _, p := range []struct {
			name      string
			got, want float64
		}{
			{"mean", got.MeanNS, want.MeanNS},
			{"p50", got.P50NS, want.P50NS},
		} {
			if math.Abs(p.got-p.want) > 0.03*p.want {
				t.Errorf("%s %s: des %.1f ns, paced %.1f ns (>3%%)", policy, p.name, p.got, p.want)
			}
		}
	}
}

// TestCrossCheckBatchedService: the batched-kernel service model
// (fleet.BatchService, derived from sim.PipelineResult.BatchCost) must
// price identically in the paced runtime and the DES engine — a formed
// batch of B requests is charged BaseNS + B·PerInputNS of engine
// occupancy, with member i completing at entry + BaseNS + (i+1)·PerInputNS.
//
// Design: one replica, MaxBatch 32, a queue deep enough for the whole
// trace, and arrivals ~10⁶× denser than service so every batch closes by
// count with a full backlog behind it. The paced runtime gets a batch
// timeout far longer than the submission burst, the trace driver a 1 ns
// collect window; both windows close by count, so every batch in both
// drivers is exactly MaxBatch, and throughput/mean-batch/latency
// statistics agree to ≤1e-6 relative.
func TestCrossCheckBatchedService(t *testing.T) {
	// Measured batched-kernel shape: fill = base + per, interval = per.
	pr := &sim.PipelineResult{FillNS: 110_000, IntervalNS: 10_000}
	baseNS, perNS := pr.BatchCost()
	svc := &fleet.BatchService{BaseNS: baseNS, PerInputNS: perNS}
	const maxBatch = 32
	w := fleet.Workload{ArrivalRate: 1e12, Requests: 64 * maxBatch, Seed: 11}

	gcfg := fleet.DefaultConfig()
	gcfg.TimeScale = 1e-3
	gcfg.MaxBatch = maxBatch
	gcfg.BatchTimeoutNS = 1e9
	gcfg.QueueDepth = w.Requests
	gf, err := fleet.New(gcfg, fleet.ReplicaSpec{Name: "batch", Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fleet.Run(gf, w)
	if err != nil {
		t.Fatal(err)
	}

	dcfg := des.DefaultConfig()
	dcfg.MaxBatch = maxBatch
	dcfg.BatchTimeoutNS = 1
	dcfg.QueueDepth = w.Requests
	df, err := des.NewFleet(dcfg, fleet.ReplicaSpec{Name: "batch", Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	got, err := df.Run(w)
	if err != nil {
		t.Fatal(err)
	}

	if want.Completed != w.Requests || got.Completed != w.Requests {
		t.Fatalf("completed: paced %d, des %d, want %d", want.Completed, got.Completed, w.Requests)
	}
	// Every batch full: the saturated fleet maps requests onto
	// batched-kernel invocations of exactly MaxBatch inputs.
	if want.MeanBatch != maxBatch || got.MeanBatch != maxBatch {
		t.Fatalf("mean batch: paced %.6f (%d batches), des %.6f (%d batches), want exactly %d",
			want.MeanBatch, want.Batches, got.MeanBatch, got.Batches, maxBatch)
	}
	for _, p := range []struct {
		name      string
		got, want float64
	}{
		{"throughput", got.ThroughputRPS, want.ThroughputRPS},
		{"mean batch", got.MeanBatch, want.MeanBatch},
		{"mean latency", got.MeanNS, want.MeanNS},
		{"p99 latency", got.P99NS, want.P99NS},
	} {
		if math.Abs(p.got-p.want) > 1e-6*math.Max(1, math.Abs(p.want)) {
			t.Errorf("%s: des %.6f, paced %.6f (rel %.3g)", p.name, p.got, p.want,
				math.Abs(p.got-p.want)/math.Max(1, math.Abs(p.want)))
		}
	}
	// The throughput itself must be the batched-kernel rate: a full batch
	// of B inputs every BaseNS + B·PerInputNS of occupancy.
	kernelRPS := maxBatch / (baseNS + maxBatch*perNS) * 1e9
	if rel := math.Abs(got.ThroughputRPS-kernelRPS) / kernelRPS; rel > 0.02 {
		t.Errorf("des throughput %.1f rps, batched-kernel rate %.1f rps (rel %.3g)",
			got.ThroughputRPS, kernelRPS, rel)
	}
}

// TestShardCrossCheckGoroutine is the sharded rung-2 crosscheck: a 4-stage
// chain with one replica per stage and priced transfers must agree with the
// paced runtime's sharded runtime to float noise — same model, advanced
// differently.
func TestShardCrossCheckGoroutine(t *testing.T) {
	shapes := []sim.PipelineResult{
		{FillNS: 1000, IntervalNS: 100},
		{FillNS: 2500, IntervalNS: 160},
		{FillNS: 600, IntervalNS: 80},
		{FillNS: 4000, IntervalNS: 250},
	}
	specs := make([]fleet.ReplicaSpec, len(shapes))
	for i := range shapes {
		pr := shapes[i]
		specs[i] = fleet.ReplicaSpec{Pipeline: &pr}
	}
	transfers := []float64{15, 40, 25}
	w := fleet.Workload{ArrivalRate: 2e6, Requests: 3000, Seed: 11}

	gcfg := fleet.DefaultConfig()
	gcfg.TimeScale = 1e-9
	gcfg.QueueDepth = w.Requests
	gcfg.Shards = 4
	gcfg.StageTransferNS = transfers
	gf, err := fleet.New(gcfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fleet.Run(gf, w)
	if err != nil {
		t.Fatal(err)
	}

	dcfg := des.DefaultConfig()
	dcfg.QueueDepth = w.Requests
	dcfg.Shards = 4
	dcfg.StageTransferNS = transfers
	df, err := des.NewFleet(dcfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := df.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed != want.Completed || got.Shed != want.Shed || got.Failed != want.Failed {
		t.Fatalf("des %d completed %d shed %d failed, paced %d completed %d shed %d failed",
			got.Completed, got.Shed, got.Failed, want.Completed, want.Shed, want.Failed)
	}
	for _, p := range statPairs(got, want.MeanNS, want.P50NS, want.P95NS, want.P99NS, want.MaxNS) {
		if math.Abs(p.got-p.want) > 1e-6*math.Max(1, p.want) {
			t.Errorf("%s: des %.6f ns, paced %.6f ns", p.name, p.got, p.want)
		}
	}
}

// Rejection parity between the engines: at the same overload with the same
// bounded queues, the paced runtime's wall-clock sheds and the DES
// fleet's virtual-time sheds must agree to a few percent of offered load.
func TestShedParityGoroutineVsDES(t *testing.T) {
	pr := sim.PipelineResult{FillNS: 5e5, IntervalNS: 1e5}
	const (
		replicas = 4
		requests = 1500
		rate     = 8e4 // 2x the 4e4 rps aggregate capacity
	)
	specs := make([]fleet.ReplicaSpec, replicas)
	for i := range specs {
		p := pr
		specs[i] = fleet.ReplicaSpec{Pipeline: &p}
	}
	w := fleet.Workload{ArrivalRate: rate, Requests: requests, Seed: 31}

	gcfg := fleet.DefaultConfig()
	gcfg.Policy = fleet.JoinShortestQueue
	gcfg.QueueDepth = 8
	gcfg.TimeScale = 40 // paced: virtual backlog is what queue-aware dispatch must see
	gf, err := fleet.New(gcfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fleet.Run(gf, w)
	if err != nil {
		t.Fatal(err)
	}

	dcfg := des.DefaultConfig()
	dcfg.Policy = fleet.JoinShortestQueue
	dcfg.QueueDepth = 8
	df, err := des.NewFleet(dcfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := df.Run(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Check(); err != nil {
		t.Fatal(err)
	}

	rejG := want.Shed + want.Unroutable
	rejD := got.Shed + got.Unroutable
	if rejG == 0 || rejD == 0 {
		t.Fatalf("expected rejections at 2x overload: paced %d, des %d", rejG, rejD)
	}
	diff := rejG - rejD
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > 0.03*float64(requests) {
		t.Fatalf("rejections disagree: paced %d vs des %d (>3%% of %d offered)",
			rejG, rejD, requests)
	}
}

// The paced runtime is a driver of the same core, not a copy: under fault
// injection, fault storms, bounces and repair sweeps, fleet.Run at a real
// pacing factor returns the unpaced core's Result and writes its event log
// byte for byte.
func TestPacedDriverMatchesCore(t *testing.T) {
	build := func(log *bytes.Buffer) (des.Config, []des.ReplicaSpec) {
		cfg := des.DefaultConfig()
		cfg.Policy = des.JoinShortestQueue
		cfg.MaxBatch = 4
		cfg.QueueDepth = 32
		cfg.MaxRetries = 2
		cfg.HealthSweepNS = 2.5e5
		cfg.Chaos = chaos.Scripted(
			chaos.Event{AtNS: 3.1e5, Kind: chaos.Faults, Target: "r1", Value: 0.03},
			chaos.Event{AtNS: 9.7e5, Kind: chaos.Crash, Target: "r2"},
			chaos.Event{AtNS: 1.23e6, Kind: chaos.Restart, Target: "r2"},
		)
		cfg.Log = log
		specs := make([]des.ReplicaSpec, 8)
		for i := range specs {
			specs[i] = des.ReplicaSpec{
				Pipeline: &sim.PipelineResult{FillNS: 2000, IntervalNS: 100},
				Repair:   &des.RepairSpec{Capacity: 0.05, MissRate: 0.5},
			}
		}
		return cfg, specs
	}
	w := des.Workload{ArrivalRate: 1e7, Requests: 20000, Seed: 8}
	storm := &fault.Model{StuckAtOne: 0.015, Seed: 4}

	var coreLog, pacedLog bytes.Buffer
	cfg, specs := build(&coreLog)
	core, err := des.NewFleet(cfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.InjectFault("r3", storm); err != nil {
		t.Fatal(err)
	}
	want, err := core.Run(w)
	if err != nil {
		t.Fatal(err)
	}

	cfg, specs = build(&pacedLog)
	// 1 virtual ms = 1 wall ms: the ~2 ms run is paced in real time.
	paced, err := fleet.New(fleet.Config{Config: cfg, TimeScale: 1}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := paced.InjectFault("r3", storm); err != nil {
		t.Fatal(err)
	}
	got, err := fleet.Run(paced, w)
	if err != nil {
		t.Fatal(err)
	}
	if want.Retried == 0 || want.ChaosEvents == 0 {
		t.Fatalf("scenario exercised no bounce or storm: %v", want)
	}
	for _, r := range []*des.Result{want, got} {
		r.WallSeconds, r.SpeedupVsWall, r.EventsPerSec = 0, 0, 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("paced result %v differs from the core's %v", got, want)
	}
	// Nothing fires after the run: the logs are equal byte for byte.
	if !bytes.Equal(pacedLog.Bytes(), coreLog.Bytes()) {
		t.Fatalf("paced event log differs from the core's (%d vs %d bytes)", pacedLog.Len(), coreLog.Len())
	}
}
