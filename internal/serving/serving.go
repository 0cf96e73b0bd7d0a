// Package serving runs a request-level discrete-event simulation of DNN
// inference serving on the pipelined accelerator: Poisson arrivals enter
// the layer pipeline at its initiation interval, and the simulation reports
// the latency distribution, queueing, and stability — the metrics an edge
// deployment (the paper's motivating setting, §2.2) actually provisions
// against.
package serving

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"autohet/internal/obs"
	"autohet/internal/sim"
)

// DefaultSeed seeds the arrival process when a workload leaves Seed at 0,
// so the zero value drives a fixed, documented stream instead of silently
// using rand.NewSource(0). Every arrival-process consumer (Serve and the
// fleet's Workload.Trace) shares this contract.
const DefaultSeed int64 = 42

// Workload describes an open-loop request stream.
type Workload struct {
	ArrivalRate float64 // mean requests per second (Poisson process)
	Requests    int     // number of requests to simulate
	// Seed seeds the arrival process; 0 selects DefaultSeed. Runs are
	// deterministic per seed.
	Seed int64
}

// Stats summarizes a serving run. Latencies are end-to-end (arrival →
// completion) in nanoseconds.
type Stats struct {
	Completed           int
	MeanNS              float64
	P50NS, P95NS, P99NS float64
	MaxNS               float64
	MakespanNS          float64
	// Utilization is the fraction of the makespan during which the
	// pipeline was accepting work at its full initiation rate.
	Utilization float64
	// MaxQueue is the deepest backlog of arrived-but-not-started requests.
	MaxQueue int
	// Stable reports whether the arrival rate is below the pipeline's
	// service capacity; an unstable system's queue grows without bound.
	Stable bool
	// CapacityRPS is the pipeline's maximum service rate.
	CapacityRPS float64
}

// positiveFinite reports whether x is a positive finite number; NaN fails
// it, where a plain x <= 0 test would let NaN through.
func positiveFinite(x float64) bool { return x > 0 && !math.IsInf(x, 0) }

// Serve simulates the workload against a pipelined accelerator.
func Serve(pr *sim.PipelineResult, w Workload) (*Stats, error) {
	if !positiveFinite(w.ArrivalRate) {
		return nil, fmt.Errorf("serving: arrival rate %v", w.ArrivalRate)
	}
	if w.Requests <= 0 {
		return nil, fmt.Errorf("serving: request count %d", w.Requests)
	}
	if !positiveFinite(pr.IntervalNS) || !positiveFinite(pr.FillNS) {
		return nil, fmt.Errorf("serving: degenerate pipeline (interval %v, fill %v)", pr.IntervalNS, pr.FillNS)
	}
	seed := w.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	rng := rand.New(rand.NewSource(seed))
	meanGapNS := 1e9 / w.ArrivalRate

	latencies := make([]float64, 0, w.Requests)
	arrival := 0.0
	prevEntry := math.Inf(-1)
	var makespan float64
	maxQueue := 0

	// Entry times form a renewal process: a request enters the pipeline at
	// max(its arrival, previous entry + initiation interval) and completes
	// one pipeline-fill later.
	//
	// Entry times are monotone nondecreasing, so the backlog at each
	// arrival instant (earlier requests whose entry is still in the
	// future, plus this one if it must wait) is a contiguous suffix of the
	// entry sequence: a single pointer advancing past started entries
	// makes the scan O(n) overall instead of rebuilding a pending slice
	// per arrival (O(n²) in the overload regime, where the backlog is
	// proportional to n).
	entries := make([]float64, 0, w.Requests)
	head := 0 // entries[:head] had started by the latest arrival
	for i := 0; i < w.Requests; i++ {
		arrival += rng.ExpFloat64() * meanGapNS
		entry := arrival
		if e := prevEntry + pr.IntervalNS; e > entry {
			entry = e
		}
		prevEntry = entry
		completion := entry + pr.FillNS
		latencies = append(latencies, completion-arrival)
		if completion > makespan {
			makespan = completion
		}
		entries = append(entries, entry)
		for head < len(entries) && entries[head] <= arrival {
			head++
		}
		if q := len(entries) - head; q > maxQueue {
			maxQueue = q
		}
	}

	servingRunsOpen.Inc()
	servingRequests.Add(int64(len(latencies)))
	sort.Float64s(latencies)
	st := &Stats{
		Completed:   len(latencies),
		MakespanNS:  makespan,
		MaxQueue:    maxQueue,
		CapacityRPS: 1e9 / pr.IntervalNS,
	}
	st.Stable = w.ArrivalRate < st.CapacityRPS
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	st.MeanNS = sum / float64(len(latencies))
	st.P50NS = obs.Percentile(latencies, 0.50)
	st.P95NS = obs.Percentile(latencies, 0.95)
	st.P99NS = obs.Percentile(latencies, 0.99)
	st.MaxNS = latencies[len(latencies)-1]
	if makespan > 0 {
		busy := float64(w.Requests) * pr.IntervalNS
		st.Utilization = math.Min(1, busy/makespan)
	}
	return st, nil
}

// String summarizes the run.
func (s *Stats) String() string {
	state := "stable"
	if !s.Stable {
		state = "OVERLOADED"
	}
	return fmt.Sprintf("%d requests (%s): mean %.4g ns, p50 %.4g, p99 %.4g, max queue %d, util %.0f%%",
		s.Completed, state, s.MeanNS, s.P50NS, s.P99NS, s.MaxQueue, 100*s.Utilization)
}
