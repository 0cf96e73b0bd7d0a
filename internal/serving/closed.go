package serving

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sort"

	"autohet/internal/obs"
	"autohet/internal/sim"
)

// Closed-loop workload: a fixed population of clients, each reissuing its
// next request an exponentially distributed think time after the previous
// one completes. Unlike the open Poisson stream, a closed system cannot be
// overloaded — concurrency self-limits — so the interesting outputs are the
// achieved throughput and where latency saturates as clients grow.

// ClosedLoop describes the client population.
type ClosedLoop struct {
	Clients     int
	Requests    int     // total requests across all clients
	ThinkTimeNS float64 // mean think time (exponential); 0 = back-to-back
	// Seed seeds the think-time process; 0 selects DefaultSeed (the same
	// contract as Workload.Seed).
	Seed int64
}

// ClosedStats summarizes a closed-loop run.
type ClosedStats struct {
	Completed           int
	MeanNS              float64
	P50NS, P95NS, P99NS float64
	MakespanNS          float64
	// ThroughputRPS is the achieved completion rate.
	ThroughputRPS float64
	// Utilization is the pipeline's busy fraction.
	Utilization float64
}

// clientHeap orders clients by their next arrival time.
type clientHeap []clientState

type clientState struct {
	next float64
	id   int
}

func (h clientHeap) Len() int            { return len(h) }
func (h clientHeap) Less(i, j int) bool  { return h[i].next < h[j].next }
func (h clientHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *clientHeap) Push(x interface{}) { *h = append(*h, x.(clientState)) }
func (h *clientHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// ServeClosed simulates the closed-loop workload against a pipelined
// accelerator.
func ServeClosed(pr *sim.PipelineResult, w ClosedLoop) (*ClosedStats, error) {
	switch {
	case w.Clients <= 0:
		return nil, fmt.Errorf("serving: clients %d", w.Clients)
	case w.Requests <= 0:
		return nil, fmt.Errorf("serving: requests %d", w.Requests)
	case w.ThinkTimeNS < 0:
		return nil, fmt.Errorf("serving: negative think time %v", w.ThinkTimeNS)
	case pr.IntervalNS <= 0 || pr.FillNS <= 0:
		return nil, fmt.Errorf("serving: degenerate pipeline (interval %v, fill %v)", pr.IntervalNS, pr.FillNS)
	}
	seed := w.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	rng := rand.New(rand.NewSource(seed))
	think := func() float64 {
		if w.ThinkTimeNS == 0 {
			return 0
		}
		return rng.ExpFloat64() * w.ThinkTimeNS
	}

	h := make(clientHeap, w.Clients)
	for i := range h {
		h[i] = clientState{next: think(), id: i}
	}
	heap.Init(&h)

	latencies := make([]float64, 0, w.Requests)
	lastEntry := -pr.IntervalNS
	var makespan float64
	for i := 0; i < w.Requests; i++ {
		c := heap.Pop(&h).(clientState)
		arrival := c.next
		entry := arrival
		if e := lastEntry + pr.IntervalNS; e > entry {
			entry = e
		}
		lastEntry = entry
		completion := entry + pr.FillNS
		latencies = append(latencies, completion-arrival)
		if completion > makespan {
			makespan = completion
		}
		c.next = completion + think()
		heap.Push(&h, c)
	}

	servingRunsClosed.Inc()
	servingRequests.Add(int64(len(latencies)))
	sort.Float64s(latencies)
	st := &ClosedStats{Completed: len(latencies), MakespanNS: makespan}
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	st.MeanNS = sum / float64(len(latencies))
	st.P50NS = obs.Percentile(latencies, 0.50)
	st.P95NS = obs.Percentile(latencies, 0.95)
	st.P99NS = obs.Percentile(latencies, 0.99)
	if makespan > 0 {
		st.ThroughputRPS = float64(len(latencies)) / makespan * 1e9
		busy := float64(len(latencies)) * pr.IntervalNS
		if busy > makespan {
			busy = makespan
		}
		st.Utilization = busy / makespan
	}
	return st, nil
}

// String summarizes the run.
func (s *ClosedStats) String() string {
	return fmt.Sprintf("%d requests: mean %.4g ns, p99 %.4g ns, %.4g req/s, util %.0f%%",
		s.Completed, s.MeanNS, s.P99NS, s.ThroughputRPS, 100*s.Utilization)
}
