package fleet

import (
	"math"
	"testing"

	"autohet/internal/fault"
	"autohet/internal/quant"
	"autohet/internal/sim"
)

// manualSweeps disables the background health loop so tests step repair
// deterministically with Fleet.Sweep.
func manualSweeps() Config {
	cfg := unpaced()
	cfg.HealthSweepNS = -1
	return cfg
}

// Replicas given the same fault model must fail on independent cells, as
// real chips do: the replica identity is mixed into the model's seed.
func TestReplicaFaultSeedsDecorrelated(t *testing.T) {
	f := mustNew(t, manualSweeps(),
		ReplicaSpec{Name: "a", Pipeline: fastPipeline()},
		ReplicaSpec{Name: "b", Pipeline: fastPipeline()})
	m := &fault.Model{StuckAtZero: 0.05, Seed: 42}
	for _, name := range []string{"a", "b"} {
		if err := f.InjectFault(name, m); err != nil {
			t.Fatal(err)
		}
	}
	models := make([]*fault.Model, 2)
	for i, r := range f.Snapshot().Replicas {
		models[i] = r.Faults
	}
	if models[0].Seed == models[1].Seed {
		t.Fatalf("replicas share fault seed %d", models[0].Seed)
	}
	// The derived fault maps must actually differ: apply each model to an
	// identical all-ones plane and diff the stuck cells.
	ones := func() []*quant.BitPlane {
		p := &quant.BitPlane{Rows: 40, Cols: 40, Bit: 0, Bits: make([]uint8, 1600)}
		for i := range p.Bits {
			p.Bits[i] = 1
		}
		return []*quant.BitPlane{p}
	}
	pa := models[0].ApplyStuckAt(ones(), 1)[0]
	pb := models[1].ApplyStuckAt(ones(), 1)[0]
	same, faultsA := 0, 0
	for i := range pa.Bits {
		if pa.Bits[i] == 0 {
			faultsA++
			if pb.Bits[i] == 0 {
				same++
			}
		}
	}
	if faultsA == 0 {
		t.Fatal("model injected no faults")
	}
	if same == faultsA {
		t.Fatalf("all %d stuck cells coincide across replicas", faultsA)
	}
	// Pin the mixing: deterministic per name, independent of injection
	// order.
	if err := f.InjectFault("a", m); err != nil {
		t.Fatal(err)
	}
	if again := f.Snapshot().Replicas[0].Faults.Seed; again != models[0].Seed {
		t.Fatalf("re-injection seeded %d, first injection %d", again, models[0].Seed)
	}
}

// The queue-aware policies weight by health: a half-healthy replica looks
// twice as loaded, so it keeps serving but takes proportionally less
// traffic instead of cliff-dropping at the threshold.
func TestHealthWeightedDispatch(t *testing.T) {
	ab := []ReplicaSpec{
		{Name: "a", Pipeline: fastPipeline()},
		{Name: "b", Pipeline: fastPipeline()},
	}
	// health = 1 − rate/0.01, so these rates leave b at 0.4 and 0.5.
	at04 := &fault.Model{StuckAtZero: 0.006}
	at05 := &fault.Model{StuckAtZero: 0.005}

	// Empty queues (arrivals far apart): the sick replica scores 1/0.4 =
	// 2.5 vs 1 — avoid it.
	cfg := frozen(JoinShortestQueue, 1)
	jsq := mustNew(t, cfg, ab...)
	if err := jsq.InjectFault("b", at04); err != nil {
		t.Fatal(err)
	}
	runScript(t, jsq, 0, 0)
	if got := outcomes(t, jsq)[0].replica; got != "a" {
		t.Fatalf("jsq with sick b picked %q, want a", got)
	}

	// But pile 3 requests onto a (score 4) and the sick replica at 2.5
	// takes traffic again: smooth shift, not a cliff.
	for _, policy := range []Policy{JoinShortestQueue, LeastOutstanding} {
		f := mustNew(t, frozen(policy, 64), ab...)
		s := stage(t, f, 4)
		s.queues([]int{3, 0})
		if err := f.InjectFault("b", at04); err != nil {
			t.Fatal(err)
		}
		if got := s.lastPick(); got != "b" {
			t.Fatalf("%s with a loaded picked %q, want the half-healthy b (score 2.5 vs 4)", policy, got)
		}
	}

	// Two replicas: p2c always samples both; equal (empty) queues, so
	// health decides every draw.
	p2c := mustNew(t, frozen(PowerOfTwo, 1), ab...)
	if err := p2c.InjectFault("b", at05); err != nil {
		t.Fatal(err)
	}
	runScript(t, p2c, 0, ramp(16, 0, 1e6)...)
	for id, o := range outcomes(t, p2c) {
		if o.replica != "a" {
			t.Fatalf("p2c draw %d picked %q, want a", id, o.replica)
		}
	}
}

// The sweep recurrence: inject 2× the degrade threshold with spare capacity
// covering it all and a 50% detection miss rate. The immediate sweep repairs
// half (health 0), then each manual sweep halves the pending residue:
// health 0.5, 0.75, 0.875, ... → recovered without clearing the fault.
func TestSelfHealingSweepRecurrence(t *testing.T) {
	f := mustNew(t, manualSweeps(), ReplicaSpec{
		Name:     "a",
		Pipeline: fastPipeline(),
		Repair:   &RepairSpec{Capacity: 0.05, MissRate: 0.5},
	})
	if err := f.InjectFault("a", &fault.Model{StuckAtZero: 0.02, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0.5, 0.75, 0.875}
	for i, w := range want {
		got := f.Snapshot().Replicas[0].Health
		if math.Abs(got-w) > 1e-12 {
			t.Fatalf("after %d sweeps health = %v, want %v", i, got, w)
		}
		f.Sweep()
	}
	for i := 0; i < 10; i++ {
		f.Sweep()
	}
	s := f.Snapshot().Replicas[0]
	if s.Health < 0.999 || s.Degraded {
		t.Fatalf("health %v after healing, want ≈1", s.Health)
	}
	if s.Repairs < 4 {
		t.Fatalf("repairs counter %d, want every productive sweep counted", s.Repairs)
	}

	// Exhausted capacity: the overflow is masked into a permanent
	// uncovered residue that sweeps cannot clear.
	f2 := mustNew(t, manualSweeps(), ReplicaSpec{
		Name:     "a",
		Pipeline: fastPipeline(),
		Repair:   &RepairSpec{Capacity: 0.004},
	})
	if err := f2.InjectFault("a", &fault.Model{StuckAtOne: 0.02}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		f2.Sweep()
	}
	if h := f2.Snapshot().Replicas[0].Health; h != 0 {
		t.Fatalf("uncovered 1.6%% ≥ threshold must keep health 0, got %v", h)
	}

	// Partial residue: capacity absorbs all but 0.5× threshold → health
	// settles at 0.5, and the replica keeps taking (reduced) traffic.
	f3 := mustNew(t, manualSweeps(), ReplicaSpec{
		Name:     "a",
		Pipeline: fastPipeline(),
		Repair:   &RepairSpec{Capacity: 0.015},
	})
	if err := f3.InjectFault("a", &fault.Model{StuckAtZero: 0.02}); err != nil {
		t.Fatal(err)
	}
	if h := f3.Snapshot().Replicas[0].Health; math.Abs(h-0.5) > 1e-12 {
		t.Fatalf("health %v, want 0.5 (0.5%% masked residue)", h)
	}
	if res := mustRun(t, f3, Workload{ArrivalRate: 1e6, Requests: 1}); res.Completed != 1 {
		t.Fatalf("half-healthy replica must stay in rotation: %v", res)
	}

	// Invalid repair specs are rejected at construction.
	if _, err := New(manualSweeps(), ReplicaSpec{
		Pipeline: fastPipeline(), Repair: &RepairSpec{MissRate: 1},
	}); err == nil {
		t.Fatal("miss rate 1 must be rejected")
	}
	if _, err := New(manualSweeps(), ReplicaSpec{
		Pipeline: fastPipeline(), Repair: &RepairSpec{Capacity: -1},
	}); err == nil {
		t.Fatal("negative capacity must be rejected")
	}
}

// The background health loop heals without manual stepping: after a storm,
// health climbs back above 0.9 within ten sweep periods of virtual time
// while the fleet keeps serving every request.
func TestOnlineHealthLoopHealsUnderTraffic(t *testing.T) {
	cfg := unpaced()
	cfg.Policy = JoinShortestQueue
	f := mustNew(t, cfg,
		ReplicaSpec{Name: "a", Pipeline: fastPipeline(), Repair: &RepairSpec{Capacity: 0.05, MissRate: 0.3}},
		ReplicaSpec{Name: "b", Pipeline: fastPipeline(), Repair: &RepairSpec{Capacity: 0.05, MissRate: 0.3}})
	if err := f.InjectFault("b", &fault.Model{StuckAtZero: 0.03, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if h := f.Snapshot().Replicas[1].Health; h > 0.9 {
		t.Fatalf("storm left b at health %v", h)
	}
	// 100k rps against 20M rps of capacity for about ten sweep periods.
	const n = 1000
	res := mustRun(t, f, Workload{ArrivalRate: 1e5, Requests: n})
	if h := f.Snapshot().Replicas[1].Health; h <= 0.9 {
		t.Fatalf("health loop did not heal b over %.3g ns: health %v", res.VirtualNS, h)
	}
	if res.VirtualNS > 10*cfg.HealthSweepNS*1.5 {
		t.Fatalf("run spanned %v ns, not about ten sweep periods", res.VirtualNS)
	}
	if res.Completed != n {
		t.Fatalf("requests lost during healing: %v", res)
	}
}

// The acceptance scenario: a fleet at ~90% utilization loses a replica to a
// fault storm mid-life, self-repairs over sweeps, and post-repair
// throughput recovers to ≥90% of the pre-fault steady state.
func TestFaultStormThroughputRecovers(t *testing.T) {
	// Queueing is virtual-time, so the run is unpaced: Run returns the same
	// Result at any time scale.
	cfg := unpaced()
	cfg.HealthSweepNS = -1
	cfg.Policy = JoinShortestQueue
	pr := func() *sim.PipelineResult {
		return &sim.PipelineResult{FillNS: 1e6, IntervalNS: 200_000}
	}
	rs := func() *RepairSpec { return &RepairSpec{Capacity: 0.05, MissRate: 0.5} }
	f := mustNew(t, cfg,
		ReplicaSpec{Name: "a", Pipeline: pr(), Repair: rs()},
		ReplicaSpec{Name: "b", Pipeline: pr(), Repair: rs()},
		ReplicaSpec{Name: "c", Pipeline: pr(), Repair: rs()})
	// Aggregate capacity 3×5k rps; offer 13.5k (90%) for ~90 ms per phase.
	w := Workload{ArrivalRate: 13.5e3, Requests: 1200, Seed: 9}

	pre, err := Run(f, w)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Completed < w.Requests*95/100 {
		t.Fatalf("pre-storm steady state unhealthy: %+v", pre)
	}

	// Storm: replica b takes 2× the degrade threshold and goes dark.
	if err := f.InjectFault("b", &fault.Model{StuckAtZero: 0.02, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if h := f.Snapshot().Replicas[1].Health; h != 0 {
		t.Fatalf("storm must degrade b, health %v", h)
	}
	storm, err := Run(f, w)
	if err != nil {
		t.Fatal(err)
	}
	// Two replicas cannot carry 135% of their capacity: the storm phase
	// visibly sheds or slows.
	if storm.Completed == w.Requests && storm.ThroughputRPS >= 0.95*pre.ThroughputRPS {
		t.Fatalf("storm phase shows no impact: %+v vs pre %+v", storm, pre)
	}

	// Self-heal: each sweep halves the pending residue.
	for i := 0; i < 8; i++ {
		f.Sweep()
	}
	if h := f.Snapshot().Replicas[1].Health; h < 0.99 {
		t.Fatalf("b not healed after 8 sweeps: health %v", h)
	}
	post, err := Run(f, w)
	if err != nil {
		t.Fatal(err)
	}
	if post.ThroughputRPS < 0.9*pre.ThroughputRPS {
		t.Fatalf("post-repair throughput %.4g rps < 90%% of pre-storm %.4g rps",
			post.ThroughputRPS, pre.ThroughputRPS)
	}
	if post.Completed < w.Requests*95/100 {
		t.Fatalf("post-repair run still shedding: %+v", post)
	}
}
