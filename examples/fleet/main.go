// Fleet: scale one accelerator into a serving deployment. A single mapped
// design has a hard throughput ceiling (see examples/serving); a deployment
// replicates designs — here two homogeneous 128x128 accelerators next to two
// paper-searched AutoHet ones — and dispatches a shared request stream
// across them. Because the replicas' capacities differ, the dispatch policy
// matters: queue-blind round robin overloads the slower replicas, while
// queue-aware policies keep the tail flat. Finally a replica degrades
// mid-run with stuck-at faults and the fleet reroutes its queued work.
//
//	go run ./examples/fleet
package main

import (
	"fmt"
	"log"

	"autohet/internal/accel"
	"autohet/internal/chaos"
	"autohet/internal/dnn"
	"autohet/internal/fleet"
	"autohet/internal/hw"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// timeScale paces runs at a fifth of real time, as a live deployment would
// be; the mid-run fault below is a chaos event on the virtual clock, so it
// lands at the same virtual instant however fast the host runs.
const timeScale = 0.2

func build(name string, st accel.Strategy) fleet.ReplicaSpec {
	m := dnn.VGG16()
	p, err := accel.BuildPlan(hw.DefaultConfig(), m, st, true)
	if err != nil {
		log.Fatal(err)
	}
	pr, err := sim.SimulateBatch(p, 64)
	if err != nil {
		log.Fatal(err)
	}
	return fleet.ReplicaSpec{Name: name, Pipeline: pr, Plan: p}
}

func main() {
	m := dnn.VGG16()
	autohet, err := accel.ParseStrategy("L1:72x64 L2-L16:576x512")
	if err != nil {
		log.Fatal(err)
	}
	specs := []fleet.ReplicaSpec{
		build("homo-1", accel.Homogeneous(m.NumMappable(), xbar.Square(128))),
		build("homo-2", accel.Homogeneous(m.NumMappable(), xbar.Square(128))),
		build("het-1", autohet),
		build("het-2", autohet),
	}
	var aggregate float64
	for _, s := range specs {
		cap := 1e9 / s.Pipeline.IntervalNS
		aggregate += cap
		fmt.Printf("%-8s capacity %5.0f req/s, area %5.1f mm²\n",
			s.Name, cap, s.Plan.Area()/1e6)
	}
	fmt.Printf("fleet aggregate: %.0f req/s\n\n", aggregate)

	// Policy face-off at 95% of aggregate capacity: round robin offers each
	// replica the same rate, which exceeds the AutoHet replicas' capacity.
	fmt.Println("95% load — dispatch policy vs tail latency:")
	for _, policy := range []fleet.Policy{fleet.RoundRobin, fleet.JoinShortestQueue} {
		cfg := fleet.DefaultConfig()
		cfg.Policy = policy
		cfg.TimeScale = timeScale
		f, err := fleet.New(cfg, specs...)
		if err != nil {
			log.Fatal(err)
		}
		res, err := fleet.Run(f, fleet.Workload{ArrivalRate: 0.95 * aggregate, Requests: 3000})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-18s p50 %7.1f µs   p99 %7.1f µs   %d/%d completed\n",
			policy, res.P50NS/1000, res.P99NS/1000, res.Completed, res.Offered)
	}

	// Robustness: one replica degrades a third into the run; its in-flight
	// requests bounce to the healthy replicas and everything still lands.
	fmt.Println("\n60% load — replica het-1 degrades mid-run (5% stuck-at cells):")
	cfg := fleet.DefaultConfig()
	cfg.Policy = fleet.JoinShortestQueue
	cfg.MaxBatch = 16
	cfg.BatchTimeoutNS = 2e6
	cfg.MaxRetries = 3
	cfg.TimeScale = timeScale
	w := fleet.Workload{ArrivalRate: 0.6 * aggregate, Requests: 3000}
	spanNS := float64(w.Requests) / w.ArrivalRate * 1e9
	cfg.Chaos = chaos.Scripted(chaos.Event{AtNS: 0.3 * spanNS, Kind: chaos.Faults, Target: "het-1", Value: 0.05})
	f, err := fleet.New(cfg, specs...)
	if err != nil {
		log.Fatal(err)
	}
	res, err := fleet.Run(f, w)
	snap := f.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %v\n", res)
	for _, r := range snap.Replicas {
		fmt.Printf("  %-8s degraded=%-5t served %4d (mean batch %.1f)\n",
			r.Name, r.Degraded, r.Served, r.MeanBatch)
	}
	fmt.Println("\nevery admitted request completed — capacity shrinks under faults, correctness does not")
}
