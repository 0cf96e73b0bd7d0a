package serving

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/obs"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

func pipeline(t *testing.T) *sim.PipelineResult {
	t.Helper()
	p, err := accel.BuildPlan(hw.DefaultConfig(), dnn.AlexNet(),
		accel.Homogeneous(8, xbar.Square(128)), true)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := sim.SimulateBatch(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestServeLightLoad(t *testing.T) {
	pr := pipeline(t)
	// 10% of capacity: requests almost never queue.
	w := Workload{ArrivalRate: 0.1 * 1e9 / pr.IntervalNS, Requests: 500, Seed: 1}
	st, err := Serve(pr, w)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Stable {
		t.Fatal("light load flagged unstable")
	}
	if st.Completed != 500 {
		t.Fatalf("completed %d", st.Completed)
	}
	// Most requests see close to the bare pipeline fill latency.
	if st.P50NS > pr.FillNS*1.5 {
		t.Fatalf("p50 %v far above fill %v under light load", st.P50NS, pr.FillNS)
	}
	if st.Utilization > 0.3 {
		t.Fatalf("light-load utilization %v too high", st.Utilization)
	}
}

func TestServeOverload(t *testing.T) {
	pr := pipeline(t)
	// 3× capacity: unstable, queue grows, tail latencies blow up.
	w := Workload{ArrivalRate: 3 * 1e9 / pr.IntervalNS, Requests: 800, Seed: 2}
	st, err := Serve(pr, w)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stable {
		t.Fatal("overload flagged stable")
	}
	if st.MaxQueue < 10 {
		t.Fatalf("overload max queue %d suspiciously small", st.MaxQueue)
	}
	if st.P99NS < 10*pr.FillNS {
		t.Fatalf("overload p99 %v did not blow up (fill %v)", st.P99NS, pr.FillNS)
	}
	if st.Utilization < 0.9 {
		t.Fatalf("overload utilization %v below 90%%", st.Utilization)
	}
	if !strings.Contains(st.String(), "OVERLOADED") {
		t.Fatal("summary must flag overload")
	}
}

func TestServePercentileOrdering(t *testing.T) {
	pr := pipeline(t)
	w := Workload{ArrivalRate: 0.8 * 1e9 / pr.IntervalNS, Requests: 2000, Seed: 3}
	st, err := Serve(pr, w)
	if err != nil {
		t.Fatal(err)
	}
	if !(st.P50NS <= st.P95NS && st.P95NS <= st.P99NS && st.P99NS <= st.MaxNS) {
		t.Fatalf("percentiles out of order: %v %v %v %v", st.P50NS, st.P95NS, st.P99NS, st.MaxNS)
	}
	if st.MeanNS < pr.FillNS {
		t.Fatalf("mean %v below minimum possible %v", st.MeanNS, pr.FillNS)
	}
	if st.Utilization < 0 || st.Utilization > 1 {
		t.Fatalf("utilization %v out of range", st.Utilization)
	}
}

func TestServeDeterministicPerSeed(t *testing.T) {
	pr := pipeline(t)
	w := Workload{ArrivalRate: 1e9 / pr.IntervalNS, Requests: 300, Seed: 4}
	a, err := Serve(pr, w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Serve(pr, w)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanNS != b.MeanNS || a.P99NS != b.P99NS || a.MaxQueue != b.MaxQueue {
		t.Fatal("serving not deterministic per seed")
	}
}

func TestServeValidation(t *testing.T) {
	pr := pipeline(t)
	cases := []Workload{
		{ArrivalRate: 0, Requests: 10},
		{ArrivalRate: -1, Requests: 10},
		{ArrivalRate: 100, Requests: 0},
		{ArrivalRate: math.NaN(), Requests: 10},
		{ArrivalRate: math.Inf(1), Requests: 10},
	}
	for _, w := range cases {
		if _, err := Serve(pr, w); err == nil {
			t.Errorf("workload %+v must error", w)
		}
	}
	for _, bad := range []*sim.PipelineResult{
		{},
		{FillNS: math.NaN(), IntervalNS: 100},
		{FillNS: math.Inf(1), IntervalNS: 100},
		{FillNS: 1000, IntervalNS: math.NaN()},
		{FillNS: 1000, IntervalNS: math.Inf(1)},
	} {
		if _, err := Serve(bad, Workload{ArrivalRate: 1, Requests: 1}); err == nil {
			t.Errorf("degenerate pipeline (fill %v, interval %v) must error", bad.FillNS, bad.IntervalNS)
		}
	}
}

// TestMaxQueueMatchesNaiveScan pins the advancing-pointer backlog
// accounting to the original per-arrival rebuild semantics: replay the
// same arrival trace and filter the full pending set at every arrival.
func TestMaxQueueMatchesNaiveScan(t *testing.T) {
	pr := &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}
	for _, frac := range []float64{0.5, 0.95, 2.0} {
		w := Workload{ArrivalRate: frac * 1e9 / pr.IntervalNS, Requests: 2000, Seed: 7}
		st, err := Serve(pr, w)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(w.Seed))
		meanGap := 1e9 / w.ArrivalRate
		arrival, prevEntry := 0.0, math.Inf(-1)
		var pending []float64
		naive := 0
		for i := 0; i < w.Requests; i++ {
			arrival += rng.ExpFloat64() * meanGap
			entry := arrival
			if e := prevEntry + pr.IntervalNS; e > entry {
				entry = e
			}
			prevEntry = entry
			pending = append(pending, entry)
			keep := pending[:0]
			for _, e := range pending {
				if e > arrival {
					keep = append(keep, e)
				}
			}
			pending = keep
			if len(pending) > naive {
				naive = len(pending)
			}
		}
		if st.MaxQueue != naive {
			t.Fatalf("load %.0f%%: MaxQueue %d, naive scan %d", 100*frac, st.MaxQueue, naive)
		}
	}
}

// TestSeedZeroSelectsDefault documents the seeding contract: Seed 0 is the
// DefaultSeed stream, not rand.NewSource(0).
func TestSeedZeroSelectsDefault(t *testing.T) {
	pr := &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}
	w := Workload{ArrivalRate: 0.8 * 1e9 / pr.IntervalNS, Requests: 500}
	zero, err := Serve(pr, w)
	if err != nil {
		t.Fatal(err)
	}
	w.Seed = DefaultSeed
	def, err := Serve(pr, w)
	if err != nil {
		t.Fatal(err)
	}
	if zero.MeanNS != def.MeanNS || zero.MaxQueue != def.MaxQueue {
		t.Fatal("Seed 0 must behave as DefaultSeed")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if obs.Percentile(vals, 0.5) != 5 {
		t.Fatalf("p50 = %v", obs.Percentile(vals, 0.5))
	}
	if obs.Percentile(vals, 0.99) != 10 {
		t.Fatalf("p99 = %v", obs.Percentile(vals, 0.99))
	}
	if obs.Percentile(vals, 0.01) != 1 {
		t.Fatalf("p1 = %v", obs.Percentile(vals, 0.01))
	}
	if obs.Percentile(nil, 0.5) != 0 {
		t.Fatal("empty percentile != 0")
	}
}
