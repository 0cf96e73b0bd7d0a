package des

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"autohet/internal/chaos"
	"autohet/internal/des/trace"
	"autohet/internal/obs"
)

// Online mode: the same state machine on a long-lived fleet. A driver
// (internal/fleet's wall-clock pacer) builds the fleet with NewOnline,
// starts each trace run with Begin, pops its events with Next and Step as
// its clock reaches them until Finished hands back the Result, and may
// inject faults or sweep between and during runs. The driver serializes
// every call; the core never blocks or sleeps.

// onlineState is what only an online fleet carries.
type onlineState struct {
	lock  sync.Locker     // the driver's lock; metric gauges read replica state under it
	hist  obs.Histogram   // fleet-wide served latency over the fleet's life
	rhist []obs.Histogram // the same per replica

	run     bool      // a Begin'd trace is in flight
	runN    int       // its request count
	runWall time.Time // its wall-clock start
}

// NewOnline builds a fleet for a driver that runs traces on it one after
// another. lock is the driver's lock, taken by the autohet_fleet_* gauges
// while they read replica state. All other calls must hold lock.
func NewOnline(cfg Config, lock sync.Locker, specs ...ReplicaSpec) (*Fleet, error) {
	f, err := NewFleet(cfg, specs...)
	if err != nil {
		return nil, err
	}
	f.online = &onlineState{lock: lock, rhist: make([]obs.Histogram, len(f.replicas))}
	f.registerFleetMetrics()
	return f, nil
}

// record keeps one served latency: in the run's exact list, and for online
// fleets in the lifetime histograms too.
func (f *Fleet) record(r *simReplica, latency float64) {
	if o := f.online; o != nil {
		o.hist.Observe(latency)
		o.rhist[r.id].Observe(latency)
	}
	f.latencies = append(f.latencies, latency)
}

// Next reports the virtual time of the earliest pending event.
func (f *Fleet) Next() (at float64, ok bool) { return f.eng.PeekAt() }

// Step fires the earliest pending event.
func (f *Fleet) Step() bool { return f.eng.Step() }

// Begin starts a trace run on a fresh timeline: virtual time restarts at
// 0, pipelines are free, the dispatch sampler and round-robin cursors
// return to their seeds and the client-side resilience state (breakers,
// retry budget, hedge latency history) to new — so back-to-back runs on one
// fleet replay identically — while health, faults and crashes carry over.
// One run is in flight at a time.
func (f *Fleet) Begin(gen trace.Generator, requests int, budgetNS float64) error {
	o := f.online
	if err := checkRun(requests, budgetNS); err != nil {
		return err
	}
	if o.run {
		return fmt.Errorf("des: a run is already in flight")
	}
	f.eng = New()
	f.eng.SetHandler(f.handle)
	f.sweepArmed = false
	f.queued, f.inFlight = 0, 0
	for _, r := range f.replicas {
		r.queue.head, r.queue.n = 0, 0
		r.nextFree, r.busy, r.inFlight = 0, false, 0
		r.collecting, r.collect = false, Handle{}
		r.cl.rrNext = 0
		if r.breaker != nil {
			r.breaker.Reset()
		}
	}
	if f.retryBudget != nil {
		f.retryBudget = chaos.NewRetryBudget(*f.res.Retry)
	}
	f.hedgeHist = obs.Histogram{}
	for _, cl := range f.clusters {
		cl.queued.Store(0)
		cl.inFlight = 0
	}
	if f.pick != nil {
		f.pick.rebuild(f.replicas)
	}
	f.clusterRR = 0
	clear(f.stageRR)
	f.rng = rand.New(rand.NewSource(f.cfg.Seed))
	if f.retryRng != nil {
		f.retryRng = rand.New(rand.NewSource(chaos.SubSeed(f.cfg.Seed, "chaos/retry")))
	}
	o.run, o.runN, o.runWall = true, requests, time.Now()
	f.start(gen, requests, budgetNS)
	return nil
}

// Finished returns the Result once the run begun by Begin is over: every
// arrival fired and only a health sweep remains. It returns nil while the run is in flight or when none
// is. The Result equals RunTrace's for the same config and trace.
func (f *Fleet) Finished() (*Result, error) {
	o := f.online
	if !o.run || !f.traceDone || f.eng.Pending() > f.background() {
		return nil, nil
	}
	o.run = false
	wall := time.Since(o.runWall)
	sort.Float64s(f.latencies)
	res := f.compileResult(o.runN, f.eng.Events(), wall)
	f.latencies = nil
	return res, res.Check()
}

// Snapshot returns a point-in-time view of the fleet and its replicas
// over the fleet's lifetime (latency quantiles from the log-bucketed
// histograms of online fleets).
func (f *Fleet) Snapshot() *Snapshot {
	s := &Snapshot{
		Submitted:  f.submitted.Load(),
		Completed:  f.completed.Load(),
		Shed:       f.shed.Load(),
		Unroutable: f.unroutable.Load(),
		Expired:    f.expired.Load(),
		Retried:    f.retried.Load(),
		Failed:     f.failed.Load(),
	}
	if o := f.online; o != nil {
		s.MeanNS, s.P50NS, s.P95NS, s.P99NS, s.MaxNS = quantiles(&o.hist)
	}
	for _, r := range f.replicas {
		rs := ReplicaSnapshot{
			Name:        r.name,
			Stage:       r.stage,
			Health:      r.health,
			Degraded:    !r.routable(),
			Queued:      r.queue.n,
			Outstanding: r.queue.n + r.inFlight,
			Served:      r.served,
			Batches:     r.batches,
			Expired:     r.expired,
			CapacityRPS: r.capacityRPS,
			AreaUM2:     r.area,
		}
		if l := r.ledger; l != nil {
			rs.Repairs = l.repairs
			if l.faults != nil {
				m := *l.faults
				rs.Faults = &m
			}
		}
		if r.batches > 0 {
			rs.MeanBatch = float64(r.batchSum) / float64(r.batches)
		}
		if o := f.online; o != nil {
			rs.MeanNS, rs.P50NS, rs.P95NS, rs.P99NS, rs.MaxNS = quantiles(&o.rhist[r.id])
		}
		s.Replicas = append(s.Replicas, rs)
	}
	return s
}

func quantiles(h *obs.Histogram) (mean, p50, p95, p99, max float64) {
	return h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max()
}

// registerFleetMetrics publishes the online fleet's latency histograms and
// per-replica queue/health gauges on obs.Default (registerMetrics already
// publishes its request outcomes). Registration rebinds by name: the latest
// fleet owns the series.
func (f *Fleet) registerFleetMetrics() {
	reg := obs.Default
	o := f.online
	reg.RegisterHistogram("autohet_fleet_latency_ns", "Fleet-wide completed-request latency in virtual nanoseconds.", &o.hist)
	locked := func(read func() float64) func() float64 {
		return func() float64 {
			o.lock.Lock()
			defer o.lock.Unlock()
			return read()
		}
	}
	for _, r := range f.replicas {
		r := r
		reg.RegisterHistogram(fmt.Sprintf("autohet_fleet_replica_latency_ns{replica=%q}", r.name),
			"Per-replica served-request latency in virtual nanoseconds.", &o.rhist[r.id])
		reg.GaugeFunc(fmt.Sprintf("autohet_fleet_queue_depth{replica=%q}", r.name),
			"Current admission-queue depth per replica.",
			locked(func() float64 { return float64(r.queue.n) }))
		reg.GaugeFunc(fmt.Sprintf("autohet_fleet_replica_health{replica=%q}", r.name),
			"Replica health score in [0,1] (1 pristine, 0 degraded).",
			locked(func() float64 { return r.health }))
		if r.breaker != nil {
			reg.GaugeFunc(fmt.Sprintf("autohet_fleet_breaker_state{replica=%q}", r.name),
				"Circuit-breaker state per replica (0 closed, 1 open, 2 half-open).",
				locked(func() float64 { return float64(r.breaker.State()) }))
		}
	}
}
