package fleet

import (
	"math"
	"reflect"
	"testing"

	"autohet/internal/chaos"
	"autohet/internal/sim"
)

func clockFleet(t *testing.T, timeScale float64) *Fleet {
	t.Helper()
	cfg := DefaultConfig()
	cfg.TimeScale = timeScale
	f, err := New(cfg, ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// The virtual clock conversion is exact integer math for reciprocal time
// scales: at the free-running 1e-9 scale a 1 ns wall delta is exactly 1e9
// virtual ns, with no float division residue for any delta while the
// product fits 2^53.
func TestVirtualNSExactAtTinyTimeScale(t *testing.T) {
	f := clockFleet(t, 1e-9)
	if f.invScale != 1_000_000_000 {
		t.Fatalf("invScale = %d for TimeScale 1e-9, want 1e9", f.invScale)
	}
	for _, deltaNS := range []int64{0, 1, 2, 3, 1000, 12345, 9_007_199} {
		want := float64(deltaNS * 1_000_000_000)
		if got := f.virtualNS(deltaNS); got != want {
			t.Errorf("virtualNS(%d) = %v, want exactly %v", deltaNS, got, want)
		}
	}
	// Past 2^53 the division fallback holds the error to 1 ulp.
	big := int64(1 << 40)
	got := f.virtualNS(big)
	want := float64(big) / 1e-9
	if got != want {
		t.Errorf("virtualNS(2^40) = %v, want the rounded division %v", got, want)
	}
}

// Real time (TimeScale 1) and experiment scales like 0.2 also take the
// exact path; a non-reciprocal scale falls back to one rounded division.
func TestVirtualNSScales(t *testing.T) {
	f1 := clockFleet(t, 1.0)
	if f1.invScale != 1 {
		t.Fatalf("invScale = %d for TimeScale 1, want 1", f1.invScale)
	}
	for _, d := range []int64{0, 7, 1 << 52} {
		if got := f1.virtualNS(d); got != float64(d) {
			t.Errorf("TimeScale 1: virtualNS(%d) = %v", d, got)
		}
	}
	f5 := clockFleet(t, 0.2)
	if f5.invScale != 5 {
		t.Fatalf("invScale = %d for TimeScale 0.2, want 5", f5.invScale)
	}
	if got := f5.virtualNS(12345); got != float64(12345*5) {
		t.Errorf("TimeScale 0.2: virtualNS(12345) = %v, want 61725", got)
	}
	f3 := clockFleet(t, 0.3)
	if f3.invScale != 0 {
		t.Fatalf("invScale = %d for non-reciprocal TimeScale 0.3, want 0", f3.invScale)
	}
	d := int64(999_999_937)
	got, want := f3.virtualNS(d), float64(d)/0.3
	ulp := math.Nextafter(want, math.Inf(1)) - want
	if math.Abs(got-want) > ulp {
		t.Errorf("TimeScale 0.3: virtualNS(%d) = %v, want %v ± 1 ulp", d, got, want)
	}
}

// Run returns the dispatch sampler to the seed, the round-robin cursors to
// zero and the client-side resilience state to new: a run after Submit
// traffic that advanced all of them replays a fresh fleet's run exactly.
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
		// The submissions' budget misses open breakers (their open-until
		// stamps lie on the old timeline) and spend retry tokens; their
		// completions feed the hedge delay's latency history.
		{JoinShortestQueue, chaos.DefaultResilience()},
	} {
		cfg := DefaultConfig()
		cfg.Seed = 123
		cfg.Policy = tc.policy
		cfg.Resilience = tc.resilience
		cfg.TimeScale = 1e-9
		fresh := mustNew(t, cfg, specs()...)
		want, err := Run(fresh, w)
		fresh.Close()
		if err != nil {
			t.Fatal(err)
		}
		used := mustNew(t, cfg, specs()...)
		done := make(chan Outcome, 17)
		for i := 0; i < 17; i++ {
			budget := 0.0
			if i < 9 {
				budget = 1 // unservable: fill alone exceeds it
			}
			if err := used.Submit(NewRequest(float64(i)*1e4, budget, done)); err != nil {
				t.Fatal(err)
			}
		}
		got, err := Run(used, w)
		used.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.LatenciesNS, want.LatenciesNS) || got.Batches != want.Batches {
			t.Fatalf("%s: run after 17 submissions diverged from a fresh fleet's run", tc.policy)
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
	f, err := New(cfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := Workload{ArrivalRate: 2e7, Requests: 1001, Seed: 7}
	a, err := Run(f, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(f, w)
	if err != nil {
		t.Fatal(err)
	}
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
