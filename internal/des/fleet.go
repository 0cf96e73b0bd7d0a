package des

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"autohet/internal/chaos"
	"autohet/internal/des/trace"
	"autohet/internal/fault"
	"autohet/internal/obs"
)

// This file is the fleet's one state machine: replica service-time model,
// two-level dispatch policies, bounded admission queues, shedding, dynamic
// batching, latency budgets, stage chaining, chaos, fault injection with
// online self-repair, and retry routing — all advanced by popping events
// off the virtual-time event queue. Two drivers run it:
//
//   - RunTrace (and Run) feed a whole arrival trace and pop events as fast
//     as the host allows: a 10k-replica fleet under a million-request trace
//     completes in seconds of wall time, and the parallel lanes
//     (parallel.go) split eligible configurations across cores.
//   - internal/fleet's runtime holds one Fleet built with NewOnline behind a
//     mutex, starts each trace with Begin and pops each event when the wall
//     clock reaches virtual time × TimeScale. Its RunTrace feeds the trace
//     exactly as Fleet.RunTrace does, so a paced run returns the unpaced
//     Result.
//
// Queue depths are virtual under both drivers: a request occupies its
// admission queue from its arrival until the batch containing it enters the
// pipeline, so the queue-aware policies see the virtual backlog, never a
// wall-clock race. Routing is hierarchical: replicas are grouped into
// clusters, the cluster policy picks a cluster, the replica policy picks
// within it — O(#clusters) per dispatch plus, for JSQ and
// least-outstanding, a tournament-tree root read (dispatch.go,
// pickindex.go).
type Config struct {
	// Policy dispatches within a cluster (default RoundRobin); ClusterPolicy
	// picks the cluster (default: same as Policy).
	Policy        Policy
	ClusterPolicy Policy
	// Clusters splits the replicas into this many contiguous clusters
	// (default 1 = flat routing).
	Clusters int
	// MaxBatch closes a replica batch at this size (default 1 = no
	// batching).
	MaxBatch int
	// BatchTimeoutNS closes a partial batch this many virtual nanoseconds
	// after its first request was picked up (default 100 µs). Only
	// meaningful with MaxBatch > 1.
	BatchTimeoutNS float64
	// QueueDepth bounds each replica's admission queue (default 256). A
	// request finding every healthy queue full is shed.
	QueueDepth int
	// MaxRetries bounds re-dispatches of a request bounced out of the queue
	// of a replica that crashed or degraded (default 0: the bounced request
	// fails). The resilience stack's Retry policy governs resilient
	// requests instead.
	MaxRetries int
	// HealthSweepNS is the virtual-time period of the online health loop:
	// while any replica has undetected faults, every period each replica
	// runs one detection/repair sweep (default 1 ms). Negative disables the
	// loop; Fleet.Sweep then steps repair by hand. Sweeps never keep a run
	// alive: a run ends when only sweeps remain in the queue.
	HealthSweepNS float64
	// Shards splits the replicas into that many contiguous pipeline-parallel
	// stages (default 1 = every replica hosts the whole model), mirroring
	// fleet.Config.Shards: arrivals dispatch into stage 0, each stage's
	// completion schedules a stage-hop event that re-queues the request at
	// the next stage after the priced transfer, and only the final stage
	// records the request's latency (measured from its original arrival, so
	// budgets span the whole chain). Sharding requires flat routing
	// (Clusters == 1) and no resilience stack, and always runs on the serial
	// engine — Workers > 1 falls back, keeping the byte-identical-log
	// contract trivially intact.
	Shards int
	// StageTransferNS prices the Shards−1 inter-stage activation handoffs
	// (nil = free, else entry s is added between completion on stage s and
	// arrival at stage s+1; typically sim.ShardStage.TransferNS).
	StageTransferNS []float64
	// Seed drives the dispatch sampler (PowerOfTwo), default 1.
	Seed int64
	// Scaler, when set, is consulted every ControlPeriodNS of virtual time
	// and may grow or shrink the active replica set (see scale.go).
	Scaler Scaler
	// ControlPeriodNS is the autoscaling control-loop period (default 10 ms
	// virtual).
	ControlPeriodNS float64
	// Admit, when set, is consulted per arrival before dispatch; a rejected
	// request is shed (admission control).
	Admit Admitter
	// Chaos, when set, is a fault-injection schedule replayed on the event
	// queue: each event fires at its virtual timestamp (crash/restart,
	// fail-slow, degraded link, fault storms — see internal/chaos). The
	// schedule participates in the determinism contract: same config, same
	// seeds, same schedule → byte-identical event log.
	Chaos *chaos.Schedule
	// Resilience enables client-side failure handling (retry with backoff,
	// hedged requests, per-replica circuit breakers, brownout). The zero
	// value disables everything: plain dispatch, which the serving.Serve
	// crosscheck anchors.
	Resilience chaos.Resilience
	// StatsWindowNS, when positive, buckets arrivals/completions/losses
	// into fixed windows of virtual time (Result.Windows) — the recovery
	// currency of the chaos experiment.
	StatsWindowNS float64
	// Log, when set, receives one line per simulation event. Identical
	// configs and seeds produce byte-identical logs — the determinism
	// anchor asserted in tests. Logging a million-request run is large;
	// leave nil outside tests and small experiments. With Workers > 1 the
	// canonical virtual-time-ordered merged log is written (byte-identical
	// to the workers=1 log).
	Log io.Writer
	// Workers > 1 shards the clusters into that many lanes, each run to
	// completion by its own engine on its own goroutine (see parallel.go).
	// Results are exact: workers=N equals workers=1 bit for bit. Lanes
	// engage only when the cluster groups cannot affect each other for the
	// whole run: at least two clusters, round-robin cluster routing, no
	// PowerOfTwo sampling, no admission hook, no resilience stack, no repair
	// loop, no chaos schedule and no autoscaler. Anything else — a chaos or
	// autoscaled run included — and any run that develops a cross-cluster
	// interaction such as whole-cluster backpressure runs on the serial
	// engine, still exact. Default 1.
	Workers int

	// lane marks a sub-fleet built by the parallel coordinator: skips
	// global metric registration (the parent owns the series) and uses
	// laneBounds for the cluster split so lane cluster boundaries match the
	// parent's exactly.
	lane       bool
	laneBounds []int
}

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config {
	return Config{
		Policy:          RoundRobin,
		Clusters:        1,
		MaxBatch:        1,
		BatchTimeoutNS:  100_000,
		QueueDepth:      256,
		HealthSweepNS:   1e6,
		Seed:            1,
		ControlPeriodNS: 10e6,
	}
}

// finite reports whether x is neither NaN nor ±Inf.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

func (c *Config) normalize() error {
	if c.Policy == "" {
		c.Policy = RoundRobin
	}
	if _, err := ParsePolicy(string(c.Policy)); err != nil {
		return err
	}
	if c.ClusterPolicy == "" {
		c.ClusterPolicy = c.Policy
	}
	if _, err := ParsePolicy(string(c.ClusterPolicy)); err != nil {
		return err
	}
	if c.Clusters == 0 {
		c.Clusters = 1
	}
	if c.Clusters < 1 {
		return fmt.Errorf("des: cluster count %d", c.Clusters)
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 1
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("des: max batch %d", c.MaxBatch)
	}
	if c.BatchTimeoutNS == 0 {
		c.BatchTimeoutNS = 100_000
	}
	if !(c.BatchTimeoutNS > 0) || !finite(c.BatchTimeoutNS) {
		return fmt.Errorf("des: batch timeout %v ns", c.BatchTimeoutNS)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("des: queue depth %d", c.QueueDepth)
	}
	// Stage hops carry the attempt count in 8 payload bits.
	if c.MaxRetries < 0 || c.MaxRetries > 255 {
		return fmt.Errorf("des: max retries %d (want 0..255)", c.MaxRetries)
	}
	if c.HealthSweepNS == 0 {
		c.HealthSweepNS = 1e6
	}
	if !finite(c.HealthSweepNS) {
		return fmt.Errorf("des: health sweep period %v ns", c.HealthSweepNS)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ControlPeriodNS == 0 {
		c.ControlPeriodNS = 10e6
	}
	if !(c.ControlPeriodNS > 0) || !finite(c.ControlPeriodNS) {
		return fmt.Errorf("des: control period %v ns", c.ControlPeriodNS)
	}
	if !(c.StatsWindowNS >= 0) || !finite(c.StatsWindowNS) {
		return fmt.Errorf("des: stats window %v ns", c.StatsWindowNS)
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Workers < 1 {
		return fmt.Errorf("des: worker count %d", c.Workers)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 1 || c.Shards >= 1<<16 {
		return fmt.Errorf("des: %d shard stages", c.Shards)
	}
	if c.Shards > 1 {
		if c.Clusters != 1 {
			return fmt.Errorf("des: sharding requires flat routing, have %d clusters", c.Clusters)
		}
		if c.Resilience.Enabled() {
			return fmt.Errorf("des: sharding and the resilience stack are mutually exclusive")
		}
	}
	if c.StageTransferNS == nil {
		c.StageTransferNS = make([]float64, c.Shards-1)
	}
	if len(c.StageTransferNS) != c.Shards-1 {
		return fmt.Errorf("des: %d stage transfers for %d shard stages", len(c.StageTransferNS), c.Shards)
	}
	for i, t := range c.StageTransferNS {
		if !(t >= 0) || !finite(t) {
			return fmt.Errorf("des: stage %d transfer %v ns", i, t)
		}
	}
	if c.Chaos != nil {
		for i, ev := range c.Chaos.Events {
			if err := validChaos(ev); err != nil {
				return fmt.Errorf("des: chaos event %d (%v): %w", i, ev, err)
			}
		}
	}
	// The built-in scaler and admitter reject parameters they cannot act on.
	for _, hook := range []any{c.Scaler, c.Admit} {
		if v, ok := hook.(interface{ validate() error }); ok {
			if err := v.validate(); err != nil {
				return err
			}
		}
	}
	if p := c.Resilience.Retry; p != nil {
		d := p.WithDefaults()
		c.Resilience.Retry = &d
	}
	if p := c.Resilience.Hedge; p != nil {
		d := p.WithDefaults()
		c.Resilience.Hedge = &d
	}
	if p := c.Resilience.Brownout; p != nil {
		d := p.WithDefaults()
		c.Resilience.Brownout = &d
	}
	return nil
}

// validChaos rejects a chaos event the core cannot apply: a non-finite
// timestamp or value, a fail-slow factor below 1 (chaos degrades, it does
// not overclock), a negative link penalty, or a fault-storm rate no
// fault.Model accepts.
func validChaos(ev chaos.Event) error {
	if !finite(ev.AtNS) || !finite(ev.Value) {
		return fmt.Errorf("non-finite time or value")
	}
	switch ev.Kind {
	case chaos.Slow:
		if ev.Value < 1 {
			return fmt.Errorf("slow factor %v (want >= 1)", ev.Value)
		}
	case chaos.Link:
		if ev.Value < 0 {
			return fmt.Errorf("link penalty %v ns", ev.Value)
		}
	case chaos.Faults:
		return (&fault.Model{StuckAtZero: ev.Value}).Validate()
	}
	return nil
}

// Typed event kinds for the fleet's hot events: the steady-state loop
// (arrival → dispatch → batch → free) schedules zero closures and zero
// per-event allocations. Payload conventions are documented per kind.
const (
	evArrival     uint16 = iota + 1 // serial arrival chain; i = request id
	evLaneArrival                   // lane arrival chain; i = index into f.laneArrivals
	evFree                          // pipeline free; i = replica index
	evCollect                       // batch collect timeout; i = replica index
	evControl                       // autoscaler control tick
	evChaos                         // chaos event; i = index into f.sched
	evResolve                       // resilient copy completion; i = replica index, x = completion, p = *reqState
	evRetry                         // retry backoff expiry; p = *reqState
	evHedge                         // hedge launch; p = *reqState
	evStageHop                      // sharded stage handoff; i = id<<24|attempts<<16|stage, x = original arrival
	evSweep                         // health-loop detection/repair sweep
)

// handle dispatches typed events from the engine to the fleet's handlers.
func (f *Fleet) handle(kind uint16, i int64, x float64, p any) {
	switch kind {
	case evArrival:
		f.fireArrival(int(i))
	case evLaneArrival:
		f.fireLaneArrival(int(i))
	case evFree:
		f.onFree(f.replicas[i])
	case evCollect:
		f.onCollectTimeout(f.replicas[i])
	case evControl:
		f.controlTick()
	case evChaos:
		f.applyChaos(f.sched[i])
	case evResolve:
		f.resolveCopy(p.(*reqState), f.replicas[i], x)
	case evRetry:
		f.redispatch(p.(*reqState))
	case evHedge:
		f.fireHedge(p.(*reqState))
	case evStageHop:
		f.onStageHop(int(i>>24), int32(i>>16&0xff), int(i&0xffff), x)
	case evSweep:
		f.onSweep()
	}
}

// simReq is one queued request copy. enqueued is the virtual time it joined
// its current queue (== arrival for trace arrivals; stage hops, bounces,
// retries and hedges carry their re-dispatch time). attempts counts bounces
// off crashed or degraded replicas. st is nil on the plain path; resilient
// requests share one reqState across all their copies (see chaos.go).
type simReq struct {
	id       int
	arrival  float64
	budget   float64
	enqueued float64
	st       *reqState
	attempts int32
}

// reqRing is a growable FIFO ring buffer of requests — per-replica
// admission queues allocate lazily and reuse storage across batches.
type reqRing struct {
	buf  []simReq
	head int
	n    int
}

func (r *reqRing) push(q simReq) {
	if r.n == len(r.buf) {
		grown := make([]simReq, 2*len(r.buf)+8)
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = q
	r.n++
}

func (r *reqRing) pop() simReq {
	q := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return q
}

func (r *reqRing) peek() simReq { return r.buf[r.head] }

// simReplica is one accelerator's virtual-time service state. The fields
// every dispatch scan reads (queue depth, active, crashed, health) share
// the first cache line.
type simReplica struct {
	queue      reqRing
	active     bool
	busy       bool // a batch occupies the pipeline until nextFree
	collecting bool
	// replicaHealth holds what chaos, fault injection and repair sweeps
	// change: crash flag, health score, fail-slow factor, link cost and
	// fault ledger (health.go).
	replicaHealth

	id          int
	name        string
	stage       int // pipeline stage served (0 without sharding)
	fill        float64
	interval    float64
	occBase     float64 // extra engine occupancy per batch (BatchService.BaseNS; 0 = pipelined)
	capacityRPS float64
	area        float64
	cl          *simCluster
	breaker     *chaos.Breaker // per-replica circuit breaker (nil = off)

	nextFree float64 // virtual time the pipeline accepts its next batch
	inFlight int     // kept members of the executing batch
	collect  Handle

	// tree is the tournament tree of r's routing group and leaf r's node in
	// it (nil without an indexed policy; see pickindex.go).
	tree []pickNode
	leaf int

	served   int64
	expired  int64
	batches  int64
	batchSum int64
	busyNS   float64 // cumulative pipeline occupancy (bubble-fraction currency)
}

func (r *simReplica) healthy() bool { return r.health > 0 }

// dispatchable reports whether new traffic may route here.
func (r *simReplica) dispatchable() bool { return r.active && r.healthy() && !r.crashed }

// canRoute consults the circuit breaker without mutating it (nil = always).
func (r *simReplica) canRoute(nowNS float64) bool {
	return r.breaker == nil || r.breaker.CanRoute(nowNS)
}

// queueScore is the health-weighted admission-queue depth the JSQ and P2C
// policies minimize: a replica at half health looks twice as long, so
// traffic shifts smoothly away instead of cliff-dropping at a threshold.
// loadScore adds the executing batch (least-outstanding).
func (r *simReplica) queueScore() float64 { return float64(r.queue.n+1) / r.health }
func (r *simReplica) loadScore() float64 {
	return float64(r.queue.n+r.inFlight+1) / r.health
}

// simCluster groups replicas for two-level routing.
type simCluster struct {
	id       int
	name     string
	replicas []*simReplica

	// queued is atomic only so metric exposition can read it while a run
	// is in flight; the simulation itself is single-goroutine.
	queued        atomic.Int64
	peakQueued    int64
	dispatchable  int // replicas accepting traffic (active && healthy && !crashed)
	inFlight      int // kept members of the replicas' executing batches
	rrNext        uint64
	tree          []pickNode // the replicas' tournament tree (nil unless indexed and unsharded)
	served        int64
	admissionShed int64 // admission-hook rejections attributed to this cluster
}

// queueScore is the cluster-level JSQ signal: waiting requests per
// dispatchable replica.
func (c *simCluster) queueScore() float64 {
	return (float64(c.queued.Load()) + 1) / float64(c.dispatchable)
}

// loadScore adds in-flight work (cluster-level least-outstanding signal).
func (c *simCluster) loadScore() float64 {
	return (float64(c.queued.Load())+float64(c.inFlight))/float64(c.dispatchable) + 1
}

// Fleet is the fleet simulator. Build with NewFleet, run one workload with
// RunTrace (or Run), then read the Result; such a Fleet is single-use and
// single-goroutine. NewOnline builds the long-lived variant the paced
// runtime runs trace after trace on (online.go).
type Fleet struct {
	cfg      Config
	eng      *Engine
	clusters []*simCluster
	replicas []*simReplica
	rng      *rand.Rand
	log      io.Writer
	// logging gates every logf call site: the variadic args would otherwise
	// box to the heap per event even with logging off, which alone costs
	// ~6 allocs/event on the steady-state path.
	logging bool

	clusterRR uint64
	// liveClusters counts clusters with a dispatchable replica.
	liveClusters int

	// Pipeline-stage bounds over replicas (Config.Shards > 1): stage s is
	// replicas[stageLo[s]:stageLo[s+1]], the same contiguous near-equal split
	// formula as the cluster bounds. stageRR holds one round-robin cursor
	// per stage.
	stageLo []int
	stageRR []uint64

	// pick indexes JoinShortestQueue and LeastOutstanding replica picks
	// (nil for the other policies and with breakers; see pickindex.go):
	// one tree per stage when sharded, else per cluster.
	pick *pickIndex

	// O(1) fleet-wide dispatch/signal state, maintained incrementally.
	queued      int
	inFlight    int
	active      int
	capacityRPS float64
	arrivalRate float64

	// Outcome counters over the fleet's lifetime. Atomic so metric
	// exposition can read them while a run is in flight.
	submitted  atomic.Int64
	completed  atomic.Int64
	shed       atomic.Int64
	unroutable atomic.Int64
	expired    atomic.Int64
	failed     atomic.Int64

	latencies    []float64
	makespan     float64
	lastArrival  float64
	arrivalsTick int64 // arrivals since the last control tick
	traceDone    bool
	base         runBase // lifetime counters at the start of the current run

	// Arrival-chain state for the typed evArrival event.
	traceGen      trace.Generator
	budgetNS      float64
	totalRequests int
	nextArrivalAt float64

	// sched is the Config.Chaos events the engine fires. sweepArmed marks a
	// pending health sweep (at most one is ever scheduled).
	sched      []chaos.Event
	sweepArmed bool

	// Online-driver state (online.go); nil for trace-fed fleets.
	online *onlineState

	// Parallel-lane state (see parallel.go). specs is retained on parent
	// fleets so the coordinator can build lane sub-fleets; the lane* fields
	// are live only when this fleet runs as one lane of a parallel run.
	specs         []ReplicaSpec
	laneArrivals  []laneArrival
	laneAbort     bool
	laneSink      *laneLog
	speedupGauge  *obs.Gauge // nil on lane sub-fleets
	ran           bool
	clusterBuf    []*simCluster // reusable scratch for degraded-path picks
	replicaBuf    []*simReplica
	scaleActions  int64
	admissionShed int64

	// Chaos + resilience state (see chaos.go). res is the normalized copy
	// of Config.Resilience; breakersOn short-circuits breaker checks off
	// the plain dispatch fast path.
	res         chaos.Resilience
	breakersOn  bool
	retryRng    *rand.Rand
	retryBudget *chaos.RetryBudget
	hedgeHist   obs.Histogram
	// Atomic like the outcome counters: CounterFunc exposition may read
	// them while a run is in flight.
	retried      atomic.Int64
	hedged       atomic.Int64
	hedgeWasted  atomic.Int64
	brownoutShed atomic.Int64
	chaosEvents  atomic.Int64
	windows      []WindowStats
	winDiscard   WindowStats // sink when StatsWindowNS is off
}

// runBase is the lifetime counters at the start of a run, so the Result
// of a later run on a long-lived online fleet reports only its own work.
type runBase struct {
	completed, shed, unroutable, expired, failed, retried int64
	chaosEvents, hedged, hedgeWasted, brownoutShed        int64
	admissionShed, scaleActions, batches, batchSum        int64
	busyNS                                                float64
}

// NewFleet builds the simulator. ReplicaSpec.Faults sets the starting
// fault ledger (health 1 − uncoveredRate/degradeThreshold after one
// immediate sweep); ReplicaSpec.Repair arms the online repair loop.
func NewFleet(cfg Config, specs ...ReplicaSpec) (*Fleet, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("des: no replicas")
	}
	if cfg.Clusters > len(specs) {
		return nil, fmt.Errorf("des: %d clusters over %d replicas", cfg.Clusters, len(specs))
	}
	f := &Fleet{
		cfg: cfg,
		eng: New(),
		rng: rand.New(rand.NewSource(cfg.Seed)),
		log: cfg.Log,
	}
	f.logging = cfg.Log != nil
	f.eng.SetHandler(f.handle)
	if cfg.Chaos != nil {
		f.sched = append([]chaos.Event(nil), cfg.Chaos.Events...)
	}
	names := map[string]bool{}
	for i, spec := range specs {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("r%d", i)
		}
		if names[name] {
			return nil, fmt.Errorf("des: duplicate replica name %q", name)
		}
		names[name] = true
		if spec.Service == nil && (spec.Pipeline == nil || !(spec.Pipeline.IntervalNS > 0) || !(spec.Pipeline.FillNS > 0)) {
			return nil, fmt.Errorf("des: replica %q has a degenerate pipeline", name)
		}
		if err := spec.Service.Validate(); err != nil {
			return nil, fmt.Errorf("des: replica %q: %w", name, err)
		}
		if err := spec.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("des: replica %q: %w", name, err)
		}
		if err := spec.Repair.Validate(); err != nil {
			return nil, fmt.Errorf("des: replica %q: %w", name, err)
		}
		r := &simReplica{
			id:     i,
			name:   name,
			active: true,
		}
		r.slow = 1
		if spec.Repair != nil {
			rs := *spec.Repair
			r.ledger = &faultLedger{repair: &rs}
		}
		r.inject(spec.Faults, name)
		// A batch service holds the engine for BaseNS + kept·PerInputNS, a
		// pipeline overlaps drain with the next batch (occBase 0).
		if s := spec.Service; s != nil {
			r.fill = s.BaseNS + s.PerInputNS
			r.interval = s.PerInputNS
			r.occBase = s.BaseNS
		} else {
			r.fill = spec.Pipeline.FillNS
			r.interval = spec.Pipeline.IntervalNS
		}
		r.capacityRPS = 1e9 / r.interval
		if cfg.Resilience.Breaker != nil {
			r.breaker = chaos.NewBreaker(*cfg.Resilience.Breaker)
		}
		if spec.Plan != nil {
			r.area = spec.Plan.Area()
		}
		f.replicas = append(f.replicas, r)
	}
	// Contiguous, near-equal cluster split. A lane sub-fleet uses the
	// parent-supplied boundaries instead so its clusters match the parent's
	// split of the same replicas exactly.
	n := len(f.replicas)
	bounds := cfg.laneBounds
	if bounds == nil {
		bounds = make([]int, cfg.Clusters+1)
		for ci := 0; ci <= cfg.Clusters; ci++ {
			bounds[ci] = ci * n / cfg.Clusters
		}
	}
	for ci := 0; ci < cfg.Clusters; ci++ {
		lo := bounds[ci]
		hi := bounds[ci+1]
		cl := &simCluster{id: ci, name: fmt.Sprintf("c%d", ci), replicas: f.replicas[lo:hi]}
		for _, r := range cl.replicas {
			r.cl = cl
		}
		f.clusters = append(f.clusters, cl)
	}
	if cfg.Shards > len(f.replicas) {
		return nil, fmt.Errorf("des: %d shard stages need at least as many replicas, have %d", cfg.Shards, len(f.replicas))
	}
	f.stageLo = make([]int, cfg.Shards+1)
	f.stageRR = make([]uint64, cfg.Shards)
	for s := 0; s <= cfg.Shards; s++ {
		f.stageLo[s] = s * n / cfg.Shards
	}
	for s := 0; s < cfg.Shards; s++ {
		for _, r := range f.replicas[f.stageLo[s]:f.stageLo[s+1]] {
			r.stage = s
		}
	}
	f.res = cfg.Resilience
	f.breakersOn = cfg.Resilience.Breaker != nil
	if cfg.Resilience.Retry != nil {
		f.retryRng = rand.New(rand.NewSource(chaos.SubSeed(cfg.Seed, "chaos/retry")))
		f.retryBudget = chaos.NewRetryBudget(*cfg.Resilience.Retry)
	}
	f.indexPicks(bounds)
	f.refreshDispatch()
	if !cfg.lane {
		f.specs = append([]ReplicaSpec(nil), specs...)
		f.registerMetrics()
	}
	return f, nil
}

// Run offers a Workload (open-loop Poisson, serving.Serve's arrival
// construction: same seed, same trace) and returns the result.
func (f *Fleet) Run(w Workload) (*Result, error) {
	if !(w.ArrivalRate > 0) || math.IsInf(w.ArrivalRate, 0) {
		return nil, fmt.Errorf("des: arrival rate %v", w.ArrivalRate)
	}
	return f.RunTrace(w.Trace(), w.Requests, w.BudgetNS)
}

// RunTrace offers requests arrivals drawn from gen and runs the simulation
// to completion. One call per Fleet. A run whose request accounting does
// not balance (Result.Check) returns the Result with an error.
func (f *Fleet) RunTrace(gen trace.Generator, requests int, budgetNS float64) (*Result, error) {
	if err := checkRun(requests, budgetNS); err != nil {
		return nil, err
	}
	if f.ran {
		return nil, fmt.Errorf("des: fleet already ran; build a new one per workload")
	}
	f.ran = true
	wallStart := time.Now()
	var res *Result
	if f.parallelEligible() {
		res = f.runParallel(gen, requests, budgetNS, wallStart)
	} else {
		res = f.runSerial(gen, requests, budgetNS, wallStart)
	}
	return res, res.Check()
}

// checkRun validates a trace run's request count and per-request latency
// budget (0 = no budget) before anything is scheduled.
func checkRun(requests int, budgetNS float64) error {
	if requests <= 0 {
		return fmt.Errorf("des: request count %d", requests)
	}
	if budgetNS < 0 || !finite(budgetNS) {
		return fmt.Errorf("des: latency budget %v ns", budgetNS)
	}
	return nil
}

// runSerial is the classic single-engine run: the reference semantics every
// parallel run must reproduce bit for bit.
func (f *Fleet) runSerial(gen trace.Generator, requests int, budgetNS float64, wallStart time.Time) *Result {
	f.start(gen, requests, budgetNS)
	for f.eng.Pending() > f.background() {
		f.eng.Step()
	}
	wall := time.Since(wallStart)
	sort.Float64s(f.latencies)
	return f.compileResult(requests, f.eng.Events(), wall)
}

// start schedules a run's setup events — the autoscaler tick, the chaos
// schedule, the health loop and the first arrival, in that sequence order
// — and resets the per-run accounting.
func (f *Fleet) start(gen trace.Generator, requests int, budgetNS float64) {
	f.latencies = make([]float64, 0, requests)
	f.makespan, f.arrivalsTick, f.traceDone, f.windows = 0, 0, false, nil
	f.base = runBase{
		completed: f.completed.Load(), shed: f.shed.Load(), unroutable: f.unroutable.Load(),
		expired: f.expired.Load(), failed: f.failed.Load(), retried: f.retried.Load(),
		chaosEvents: f.chaosEvents.Load(), hedged: f.hedged.Load(), hedgeWasted: f.hedgeWasted.Load(),
		brownoutShed: f.brownoutShed.Load(), admissionShed: f.admissionShed, scaleActions: f.scaleActions,
	}
	for _, r := range f.replicas {
		f.base.batches += r.batches
		f.base.batchSum += r.batchSum
		f.base.busyNS += r.busyNS
	}
	if f.cfg.Scaler != nil {
		f.eng.ScheduleEvent(f.cfg.ControlPeriodNS, evControl, 0, 0, nil)
	}
	if f.cfg.Chaos != nil {
		for i := range f.cfg.Chaos.Events {
			f.eng.AtEvent(f.cfg.Chaos.Events[i].AtNS, evChaos, int64(i), 0, nil)
		}
	}
	f.armSweep()
	f.traceGen, f.totalRequests, f.budgetNS = gen, requests, budgetNS
	f.nextArrivalAt = gen.NextGapNS()
	f.lastArrival = f.nextArrivalAt
	f.eng.AtEvent(f.nextArrivalAt, evArrival, 0, 0, nil)
}

// background counts the pending events that never keep a run alive: the
// health sweep.
func (f *Fleet) background() int {
	if f.sweepArmed {
		return 1
	}
	return 0
}

// fireArrival handles one evArrival event: admit request id at the current
// virtual time, then schedule the next arrival — allocation-free, with the
// float accumulation nextArrivalAt += gap.
func (f *Fleet) fireArrival(id int) {
	f.arrive(id, f.nextArrivalAt, f.budgetNS)
	id++
	if id < f.totalRequests {
		f.nextArrivalAt += f.traceGen.NextGapNS()
		f.lastArrival = f.nextArrivalAt
		f.eng.AtEvent(f.nextArrivalAt, evArrival, int64(id), 0, nil)
	} else {
		f.traceDone = true
	}
}

// Result is a run summary: request accounting and exact latency
// percentiles (nearest-rank over the completed requests' virtual
// latencies, unlike Snapshot's histogram-approximated ones), plus
// engine-level speed metrics and per-cluster stats.
type Result struct {
	Offered    int
	Completed  int
	Shed       int // refused at admission: every healthy queue full
	Unroutable int // refused at admission: no healthy replica
	Expired    int // accepted but dropped for missing their budget
	Failed     int // accepted but undeliverable (retries exhausted)
	Retried    int // re-dispatches after a lost copy (bounces and retries)

	MeanNS              float64
	P50NS, P95NS, P99NS float64
	MaxNS               float64
	// MakespanNS is the latest virtual completion (or arrival) time.
	MakespanNS float64
	// ThroughputRPS is the achieved completion rate over the makespan.
	ThroughputRPS float64
	// Batches counts executed batches during this run; MeanBatch is the
	// average kept batch size — the currency of the batched-kernel service
	// model (a saturated MaxBatch fleet should hold MeanBatch ≈ MaxBatch).
	Batches   int64
	MeanBatch float64
	// BubbleFraction is the share of replica-time the engines sat idle
	// over the run's makespan — 1 − Σ(replica occupancy)/(N·makespan). In
	// a sharded fleet this is the pipeline bubble: stage imbalance and
	// transfer gaps show up here even when every stage is healthy.
	BubbleFraction float64

	// LatenciesNS holds every completed request's virtual latency, sorted
	// ascending — the crosscheck currency.
	LatenciesNS []float64
	// Events is the number of simulation events fired.
	Events int64
	// Lanes is the number of parallel lanes that actually ran: Config.Workers
	// when the sharded path engaged, 1 for serial runs — including parallel
	// attempts that fell back mid-run (the exactness escape hatch).
	Lanes int
	// VirtualNS is the simulated span (last event of the run).
	VirtualNS float64
	// WallSeconds is the wall-clock cost of the run; SpeedupVsWall is
	// virtual seconds simulated per wall second — the trace driver's reason
	// to exist (a TimeScale-1 paced fleet holds this at ~1).
	WallSeconds   float64
	SpeedupVsWall float64
	EventsPerSec  float64
	// AdmissionShed counts sheds decided by the Admit hook (a subset of
	// Shed); ScaleActions counts autoscaler activate/deactivate
	// steps.
	AdmissionShed int64
	ScaleActions  int64
	// Chaos and resilience accounting: ChaosEvents counts schedule events
	// applied; Hedged counts backup dispatches launched, HedgeWasted the
	// copies that lost the first-wins race (or were cancelled in queue);
	// BrownoutShed counts arrivals shed by priority under backlog (a subset
	// of Shed).
	ChaosEvents  int64
	Hedged       int64
	HedgeWasted  int64
	BrownoutShed int64
	// Windows buckets the run into Config.StatsWindowNS spans of virtual
	// time (nil when windowing is off).
	Windows  []WindowStats
	Clusters []ClusterStats
}

// Check verifies request conservation: every offered request ended exactly
// one way — offered = completed + shed + unroutable + expired + failed —
// and every completion left one latency.
func (r *Result) Check() error {
	if got := r.Completed + r.Shed + r.Unroutable + r.Expired + r.Failed; got != r.Offered {
		return fmt.Errorf("des: conservation violated: %d offered, %d accounted (completed %d, shed %d, unroutable %d, expired %d, failed %d)",
			r.Offered, got, r.Completed, r.Shed, r.Unroutable, r.Expired, r.Failed)
	}
	if len(r.LatenciesNS) != r.Completed {
		return fmt.Errorf("des: %d latencies for %d completions", len(r.LatenciesNS), r.Completed)
	}
	return nil
}

// WindowStats is one fixed window of virtual time: arrivals bucketed by
// arrival time, completions by completion time, losses by decision time.
type WindowStats struct {
	StartNS    float64
	Arrived    int64
	Completed  int64
	Expired    int64
	Failed     int64
	Shed       int64
	Unroutable int64
}

// GoodputRPS is the window's completion rate in requests per virtual second.
func (w WindowStats) GoodputRPS(windowNS float64) float64 {
	if windowNS <= 0 {
		return 0
	}
	return float64(w.Completed) / windowNS * 1e9
}

// ClusterStats summarizes one cluster after a run.
type ClusterStats struct {
	Name       string
	Replicas   int
	Active     int
	Served     int64
	PeakQueued int64
	// AdmissionShed counts admission-hook rejections attributed to this
	// cluster (the cluster routing had picked before the hook refused).
	AdmissionShed int64
}

// compileResult summarizes the run from the fleet's counters and its
// latencies, which the caller has sorted after taking the run's wall time.
func (f *Fleet) compileResult(requests int, events int64, wall time.Duration) *Result {
	b := &f.base
	res := &Result{
		Offered:       requests,
		Completed:     int(f.completed.Load() - b.completed),
		Shed:          int(f.shed.Load() - b.shed),
		Unroutable:    int(f.unroutable.Load() - b.unroutable),
		Expired:       int(f.expired.Load() - b.expired),
		Failed:        int(f.failed.Load() - b.failed),
		Retried:       int(f.retried.Load() - b.retried),
		Events:        events,
		Lanes:         1,
		WallSeconds:   wall.Seconds(),
		AdmissionShed: f.admissionShed - b.admissionShed,
		ScaleActions:  f.scaleActions - b.scaleActions,
		ChaosEvents:   f.chaosEvents.Load() - b.chaosEvents,
		Hedged:        f.hedged.Load() - b.hedged,
		HedgeWasted:   f.hedgeWasted.Load() - b.hedgeWasted,
		BrownoutShed:  f.brownoutShed.Load() - b.brownoutShed,
		Windows:       f.windows,
	}
	var busy float64
	for _, r := range f.replicas {
		res.Batches += r.batches
		res.MeanBatch += float64(r.batchSum) // members for now; divided below
		busy += r.busyNS
	}
	res.Batches -= b.batches
	res.MeanBatch -= float64(b.batchSum)
	busy -= b.busyNS
	if res.Batches > 0 {
		res.MeanBatch /= float64(res.Batches)
	} else {
		res.MeanBatch = 0
	}
	res.LatenciesNS = f.latencies
	if n := len(f.latencies); n > 0 {
		var sum float64
		for _, l := range f.latencies {
			sum += l
		}
		res.MeanNS = sum / float64(n)
		res.P50NS = obs.Percentile(f.latencies, 0.50)
		res.P95NS = obs.Percentile(f.latencies, 0.95)
		res.P99NS = obs.Percentile(f.latencies, 0.99)
		res.MaxNS = f.latencies[n-1]
	}
	res.MakespanNS = math.Max(f.makespan, f.lastArrival)
	res.VirtualNS = math.Max(res.MakespanNS, f.eng.Now())
	if res.MakespanNS > 0 {
		res.ThroughputRPS = float64(res.Completed) / res.MakespanNS * 1e9
		idle := 1 - busy/(float64(len(f.replicas))*res.MakespanNS)
		res.BubbleFraction = math.Min(1, math.Max(0, idle))
	}
	if res.WallSeconds > 0 {
		res.SpeedupVsWall = res.VirtualNS / 1e9 / res.WallSeconds
		res.EventsPerSec = float64(events) / res.WallSeconds
	}
	eventsTotal.Add(events)
	if f.speedupGauge != nil {
		f.speedupGauge.Set(res.SpeedupVsWall)
	}
	for _, cl := range f.clusters {
		active := 0
		for _, r := range cl.replicas {
			if r.active {
				active++
			}
		}
		res.Clusters = append(res.Clusters, ClusterStats{
			Name:          cl.name,
			Replicas:      len(cl.replicas),
			Active:        active,
			Served:        cl.served,
			PeakQueued:    cl.peakQueued,
			AdmissionShed: cl.admissionShed,
		})
	}
	return res
}

// String summarizes the run.
func (r *Result) String() string {
	return fmt.Sprintf("%d offered: %d completed, %d shed, %d expired; p50 %.4g ns, p99 %.4g ns, %.4g req/s; %d events (%.3gM ev/s), virtual/wall speedup %.3gx",
		r.Offered, r.Completed, r.Shed, r.Expired, r.P50NS, r.P99NS, r.ThroughputRPS,
		r.Events, r.EventsPerSec/1e6, r.SpeedupVsWall)
}
