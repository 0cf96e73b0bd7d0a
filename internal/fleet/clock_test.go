package fleet

import (
	"reflect"
	"testing"

	"autohet/internal/chaos"
	"autohet/internal/sim"
)

// Run returns the dispatch sampler to the seed, the round-robin cursors to
// zero and the client-side resilience state to new: a run after another
// run that advanced all of them replays a fresh fleet's run exactly.
func TestResetDispatch(t *testing.T) {
	specs := func() []ReplicaSpec {
		s := make([]ReplicaSpec, 5)
		for i := range s {
			s[i] = ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 1000 + 300*float64(i), IntervalNS: 100}}
		}
		return s
	}
	w := Workload{ArrivalRate: 3e7, Requests: 503, Seed: 4}
	for _, tc := range []struct {
		policy     Policy
		resilience chaos.Resilience
	}{
		{RoundRobin, chaos.Resilience{}},
		{PowerOfTwo, chaos.Resilience{}},
		// The warm-up's budget misses open breakers (their open-until stamps
		// lie on the old timeline) and spend retry tokens; its completions
		// feed the hedge delay's latency history.
		{JoinShortestQueue, chaos.DefaultResilience()},
	} {
		cfg := DefaultConfig()
		cfg.Seed = 123
		cfg.Policy = tc.policy
		cfg.Resilience = tc.resilience
		cfg.TimeScale = 1e-9
		want := mustRun(t, mustNew(t, cfg, specs()...), w)
		used := mustNew(t, cfg, specs()...)
		// 17 requests, a budget only the faster replicas meet.
		warm := mustRun(t, used, Workload{ArrivalRate: 3e7, Requests: 17, Seed: 2, BudgetNS: 1500})
		if warm.Completed == 0 || warm.Expired+warm.Retried == 0 {
			t.Fatalf("%s: warm-up %v exercised no completion or budget miss", tc.policy, warm)
		}
		got := mustRun(t, used, w)
		if !reflect.DeepEqual(got.LatenciesNS, want.LatenciesNS) || got.Batches != want.Batches {
			t.Fatalf("%s: run after a warm-up run diverged from a fresh fleet's run", tc.policy)
		}
	}
}

// Back-to-back identical workloads on one fleet produce identical results:
// the regression the dispatch reset exists for. The request count is chosen
// indivisible by the replica count so a carried-over round-robin cursor
// would shift every assignment on the second run.
func TestRunReplayDeterministic(t *testing.T) {
	shapes := []sim.PipelineResult{
		{FillNS: 1000, IntervalNS: 100},
		{FillNS: 2500, IntervalNS: 160},
		{FillNS: 600, IntervalNS: 80},
	}
	specs := make([]ReplicaSpec, 6)
	for i := range specs {
		pr := shapes[i%len(shapes)]
		specs[i] = ReplicaSpec{Pipeline: &pr}
	}
	cfg := DefaultConfig()
	cfg.TimeScale = 1e-9
	cfg.QueueDepth = 2000
	f := mustNew(t, cfg, specs...)
	w := Workload{ArrivalRate: 2e7, Requests: 1001, Seed: 7}
	a, b := mustRun(t, f, w), mustRun(t, f, w)
	if a.Completed != b.Completed || a.Shed != b.Shed || a.Unroutable != b.Unroutable || a.Expired != b.Expired {
		t.Fatalf("replay diverged: %+v vs %+v", a, b)
	}
	pairs := []struct {
		name string
		x, y float64
	}{
		{"mean", a.MeanNS, b.MeanNS},
		{"p50", a.P50NS, b.P50NS},
		{"p95", a.P95NS, b.P95NS},
		{"p99", a.P99NS, b.P99NS},
		{"max", a.MaxNS, b.MaxNS},
	}
	for _, p := range pairs {
		if p.x != p.y {
			t.Errorf("replay %s diverged: %v vs %v", p.name, p.x, p.y)
		}
	}
}
