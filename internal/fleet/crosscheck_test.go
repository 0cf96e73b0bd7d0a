package fleet

import (
	"math"
	"testing"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/serving"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// A single-replica fleet with no batching applies exactly serving.Serve's
// pipelined recurrence (entry = max(arrival, previous entry + interval),
// completion = entry + fill), and fleet.Run replays serving's arrival trace
// for the same seed. The distributions must therefore agree to floating-point
// noise, independent of wall-clock pacing — the accounting is virtual-time.
func crossCheck(t *testing.T, pr *sim.PipelineResult, load float64, requests int, seed int64) {
	t.Helper()
	w := serving.Workload{ArrivalRate: load * 1e9 / pr.IntervalNS, Requests: requests, Seed: seed}
	want, err := serving.Serve(pr, w)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.TimeScale = 1e-9 // never sleeps; the accounting is unchanged
	// The admission queue holds the whole trace, as serving.Serve's
	// unbounded queue does, to rule out shedding.
	cfg.QueueDepth = requests
	f := mustNew(t, cfg, ReplicaSpec{Name: "solo", Pipeline: pr})
	got := mustRun(t, f, Workload{ArrivalRate: w.ArrivalRate, Requests: requests, Seed: seed})

	if got.Completed != want.Completed || got.Shed != 0 {
		t.Fatalf("fleet completed %d (shed %d), serving completed %d",
			got.Completed, got.Shed, want.Completed)
	}
	pairs := []struct {
		name      string
		got, want float64
	}{
		{"mean", got.MeanNS, want.MeanNS},
		{"p50", got.P50NS, want.P50NS},
		{"p95", got.P95NS, want.P95NS},
		{"p99", got.P99NS, want.P99NS},
		{"max", got.MaxNS, want.MaxNS},
	}
	for _, p := range pairs {
		if math.Abs(p.got-p.want) > 1e-6*math.Max(1, p.want) {
			t.Errorf("load %.0f%% %s: fleet %.6f ns, serving %.6f ns", 100*load, p.name, p.got, p.want)
		}
	}
}

func TestCrossCheckSyntheticPipeline(t *testing.T) {
	pr := &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}
	for _, load := range []float64{0.3, 0.8, 1.5} {
		crossCheck(t, pr, load, 3000, 9)
	}
}

func TestCrossCheckMappedPlan(t *testing.T) {
	p, err := accel.BuildPlan(hw.DefaultConfig(), dnn.AlexNet(),
		accel.Homogeneous(8, xbar.Square(128)), true)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := sim.SimulateBatch(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, load := range []float64{0.8, 1.2} {
		crossCheck(t, pr, load, 1500, 11)
	}
}
