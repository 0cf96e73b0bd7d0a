package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"autohet/internal/des"
	"autohet/internal/des/trace"
	"autohet/internal/fleet"
	"autohet/internal/sim"
)

// fleetShape is one DES fleet recipe: 100 req/s serving-scale replicas
// (the BENCH_fleet.json service model) offered a bursty MMPP trace at 70%
// of capacity, jsq within a cluster.
type fleetShape struct {
	replicas, clusters, requests int
	// shards > 1 cuts each request into a chain of pipeline stages with a
	// 0.1 ms hop between stages; the engine runs sharded fleets serially.
	shards  int
	workers int
}

var (
	// fleetRecipe exercises the two-level heap, the trace and per-cluster
	// routing, on the parallel lanes (rr over clusters is lane-eligible).
	fleetRecipe = fleetShape{replicas: 10_000, clusters: 100, requests: 1_000_000, shards: 1, workers: 2}
	// flatRecipe exercises a flat 1000-replica jsq scan and stage-hop
	// chaining instead of the heap.
	flatRecipe = fleetShape{replicas: 1_000, clusters: 1, requests: 300_000, shards: 4, workers: 1}
)

// tiny returns the smoke-size version of a recipe: same structure, a
// small fleet and a short trace.
func (s fleetShape) tiny() fleetShape {
	s.replicas, s.requests = s.replicas/50, s.requests/50
	s.clusters = max(1, s.clusters/10)
	return s
}

// build returns the fleet's config, replica specs and offered rate.
func (s fleetShape) build(seed int64, workers int) (des.Config, []fleet.ReplicaSpec, float64) {
	const fillNS, intervalNS = 5e7, 1e7
	c := des.DefaultConfig()
	c.Policy = fleet.JoinShortestQueue
	c.ClusterPolicy = fleet.RoundRobin
	c.Clusters = s.clusters
	c.QueueDepth = 64
	c.Seed = seed
	c.Workers = workers
	capacity := float64(s.replicas) * 1e9 / intervalNS
	if s.shards > 1 {
		c.Shards = s.shards
		c.StageTransferNS = make([]float64, s.shards-1)
		for i := range c.StageTransferNS {
			c.StageTransferNS[i] = 1e5
		}
		capacity /= float64(s.shards)
	}
	pr := &sim.PipelineResult{FillNS: fillNS, IntervalNS: intervalNS}
	specs := make([]fleet.ReplicaSpec, s.replicas)
	for i := range specs {
		specs[i] = fleet.ReplicaSpec{Pipeline: pr}
	}
	return c, specs, 0.7 * capacity
}

// arrivals is the recipe's bursty trace for one repetition.
func arrivals(rate float64, seed int64) trace.Generator { return trace.Bursty(rate, 1.8, 50e6, seed) }

// runFleet drives DES fleet simulation: build a fleet (set-up), offer the
// recipe's trace through RunTrace, check request conservation, repeat with
// a fresh fleet and a new trace seed until the run's time is used.
func runFleet(b *bench, recipe fleetShape) {
	shape, setupReps := recipe, 60
	if b.tiny {
		shape, setupReps = recipe.tiny(), 1
	}
	cfg, specs, rate := shape.build(b.seed, shape.workers)

	var setups []float64
	for r := 0; r < setupReps; r++ {
		runtime.GC() // every repetition starts on the same clean heap
		start := time.Now()
		_, err := des.NewFleet(cfg, specs...)
		if err != nil {
			b.op(fmt.Errorf("fleet set-up: %w", err))
			return
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var (
		perSec, callMS, setupMS, nsPerEvent, finalizeMS []float64
		allocsPerEvent, bytesPerRequest                 []float64
		first                                           *des.Result
	)
	end := b.deadline(1)
	for i := 0; i == 0 || (!b.tiny && time.Now().Before(end)); i++ {
		root := b.spans.begin("fleet.repetition", 0)
		id := b.spans.begin("des.NewFleet", root)
		start := time.Now()
		f, err := des.NewFleet(cfg, specs...)
		setup := time.Since(start)
		b.spans.end(id)
		if err != nil {
			b.op(fmt.Errorf("fleet set-up: %w", err))
			return
		}
		gen := arrivals(rate, b.seed*1000+int64(i))
		var m0, m1 runtime.MemStats
		if b.traced {
			runtime.ReadMemStats(&m0)
		}
		id = b.spans.begin("des.Fleet.RunTrace", root)
		start = time.Now()
		res, err := f.RunTrace(gen, shape.requests, 0)
		wall := time.Since(start)
		b.spans.end(id)
		b.spans.end(root)
		b.op(err)
		if err != nil {
			return
		}
		b.check(checkConservation(res))
		perSec = append(perSec, float64(shape.requests)/wall.Seconds())
		callMS = append(callMS, ms(wall))
		if b.traced {
			runtime.ReadMemStats(&m1)
			// Result.WallSeconds stops before the result is compiled; the
			// rest of the call is compilation, the latency sort included.
			loop := time.Duration(res.WallSeconds * 1e9)
			b.spans.add("des.finalize", id, start.Add(loop), start.Add(wall))
			setupMS = append(setupMS, ms(setup))
			nsPerEvent = append(nsPerEvent, float64(loop.Nanoseconds())/float64(res.Events))
			finalizeMS = append(finalizeMS, ms(wall-loop))
			allocsPerEvent = append(allocsPerEvent, float64(m1.Mallocs-m0.Mallocs)/float64(res.Events))
			bytesPerRequest = append(bytesPerRequest, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(shape.requests))
		}
		if first == nil {
			first = res
			b.model["model.p99_ms"] = res.P99NS / 1e6
			b.model["model.p50_ms"] = res.P50NS / 1e6
			b.model["model.mean_ms"] = res.MeanNS / 1e6
			b.model["model.completed"] = float64(res.Completed)
			b.model["model.shed"] = float64(res.Shed)
			b.model["model.expired"] = float64(res.Expired)
			b.model["model.virtual_s"] = res.VirtualNS / 1e9
			b.model["model.events"] = float64(res.Events)
			b.model["des.lanes"] = float64(res.Lanes)
		}
		// Collect the finished fleet before the next one is built, so
		// every repetition starts on the same clean heap.
		runtime.GC()
	}
	if recipe.workers > 1 {
		b.op(checkWorkersIdentical(recipe.tiny(), b.seed))
	}

	b.samples["setup_s"], b.samples["throughput_per_s"], b.samples["call_ms"] = setups, perSec, callMS
	if !b.traced {
		b.setE2E("setup_s", "s", median(setups))
		b.setE2E("throughput_per_s", "1/s", median(perSec))
		b.setE2E("call_p50_ms", "ms", quantile(callMS, 0.5))
		return
	}
	b.setLayer("traced.throughput_per_s", "1/s", median(perSec))
	b.setLayer("traced.call_p90_ms", "ms", quantile(callMS, 0.9))
	b.setLayer("des.ns_per_event", "ns", median(nsPerEvent))
	b.setLayer("des.finalize_ms", "ms", median(finalizeMS))
	b.setLayer("des.setup_ms", "ms", median(setupMS))
	b.setLayer("des.allocs_per_event", "count", median(allocsPerEvent))
	b.setLayer("des.bytes_per_request", "B", median(bytesPerRequest))
	b.setLayer("des.events", "count", float64(first.Events))
	b.setLayer("des.events_per_request", "count", float64(first.Events)/float64(shape.requests))
	b.setLayer("des.lanes", "count", float64(first.Lanes))
	b.setLayer("model.p99_ms", "ms", first.P99NS/1e6)
	b.setLayer("model.completed", "count", float64(first.Completed))
	b.setLayer("model.shed", "count", float64(first.Shed))
	b.setLayer("model.virtual_s", "s", first.VirtualNS/1e9)
	events := 2_000_000
	if b.tiny {
		events = 20_000
	}
	b.setLayer("des.engine_ns_per_event", "ns", engineCost(b, shape.replicas, events))
	b.setLayer("trace.ns_per_arrival", "ns", arrivalCost(b, rate, events))
}

// checkConservation demands that every offered request resolved exactly
// once.
func checkConservation(r *des.Result) error {
	if got := r.Completed + r.Shed + r.Expired + r.Unroutable + r.Failed; got != r.Offered {
		return fmt.Errorf("fleet check: %d offered, %d resolved (completed %d, shed %d, expired %d, unroutable %d, failed %d)",
			r.Offered, got, r.Completed, r.Shed, r.Expired, r.Unroutable, r.Failed)
	}
	return nil
}

// checkWorkersIdentical runs a reduced instance of the recipe at Workers=1
// and Workers=2 and demands identical results, host timings aside, with
// the second run actually on two lanes.
func checkWorkersIdentical(shape fleetShape, seed int64) error {
	var got [2]*des.Result
	for i, w := range []int{1, 2} {
		cfg, specs, rate := shape.build(seed, w)
		f, err := des.NewFleet(cfg, specs...)
		if err != nil {
			return fmt.Errorf("fleet check: workers=%d: %w", w, err)
		}
		if got[i], err = f.RunTrace(arrivals(rate, seed), shape.requests, 0); err != nil {
			return fmt.Errorf("fleet check: workers=%d: %w", w, err)
		}
	}
	if got[1].Lanes != 2 {
		return fmt.Errorf("fleet check: workers=2 ran on %d lanes", got[1].Lanes)
	}
	for _, r := range got {
		r.WallSeconds, r.SpeedupVsWall, r.EventsPerSec, r.Lanes = 0, 0, 0, 0
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		return fmt.Errorf("fleet check: workers=1 and workers=2 results differ: %v vs %v", got[0], got[1])
	}
	return nil
}

// benchKind is the event kind engineCost schedules (kind 0 is reserved
// for closure events).
const benchKind = 1

// engineCost is the raw des.Engine cost per event, ScheduleEvent plus the
// pop in Run, with about depth events pending: each fired event schedules
// one replacement until events have fired. Delays are drawn up front so
// the timing holds only engine work.
func engineCost(b *bench, depth, events int) float64 {
	rng := rand.New(rand.NewSource(b.seed))
	delays := make([]float64, depth+events)
	for i := range delays {
		delays[i] = rng.ExpFloat64() * 1e6
	}
	e := des.New()
	next := depth
	e.SetHandler(func(kind uint16, i int64, x float64, p any) {
		if next < len(delays) {
			e.ScheduleEvent(delays[next], benchKind, 0, 0, nil)
			next++
		}
	})
	id := b.spans.begin("des.Engine.Run", 0)
	start := time.Now()
	for i := 0; i < depth; i++ {
		e.ScheduleEvent(delays[i], benchKind, 0, 0, nil)
	}
	n := e.Run()
	d := time.Since(start)
	b.spans.end(id)
	return float64(d.Nanoseconds()) / float64(n)
}

// arrivalCost is trace.Bursty's NextGapNS cost per arrival.
func arrivalCost(b *bench, rate float64, n int) float64 {
	g := arrivals(rate, b.seed)
	id := b.spans.begin("trace.Generator.NextGapNS", 0)
	start := time.Now()
	var total float64
	for i := 0; i < n; i++ {
		total += g.NextGapNS()
	}
	d := time.Since(start)
	b.spans.end(id)
	if total <= 0 {
		b.check(fmt.Errorf("trace check: %d gaps summed to %v", n, total))
	}
	return float64(d.Nanoseconds()) / float64(n)
}
