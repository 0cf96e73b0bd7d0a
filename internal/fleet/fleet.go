// Package fleet is the wall-clock serving runtime: it dispatches inference
// requests across N replica accelerators, each wrapping a mapped design
// (accel.Plan) whose pipelined timing (sim.PipelineResult) supplies its
// service rate, so AutoHet-searched and homogeneous designs can be mixed in
// one fleet.
//
// The runtime is a driver, not a second simulator. It holds one
// des.Fleet — the state machine that owns dispatch policies, dynamic
// batching, bounded admission queues with shedding, latency budgets, stage
// chaining, chaos, fault injection with online self-repair, and retry
// routing — behind a mutex, and a pacer goroutine pops that core's events
// when the wall clock reaches virtual time × Config.TimeScale. Submit feeds
// it one request at a time from any number of goroutines; Run feeds it a
// whole Poisson trace and returns exactly the Result des.Fleet.RunTrace
// returns for the same config and trace, only paced.
//
// Time model: requests carry virtual arrival stamps in nanoseconds and all
// queueing/latency accounting is done in that virtual clock. Submit first
// fires the core's events up to the request's arrival; a request whose
// arrival is already behind the core's clock joins its queue at the current
// virtual time and keeps its arrival for latency and budget. A paced fleet's
// clock runs on the wall, so its Submit stream is exact while each request
// is submitted before the wall clock reaches its arrival. A free-running
// fleet (TimeScale ≤ FreeRunScale) has no wall clock to keep: its
// submitters step it, so a stream with nondecreasing arrivals is exact at
// any host speed.
package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"autohet/internal/chaos"
	"autohet/internal/des"
	"autohet/internal/fault"
)

// The shared vocabulary lives with the core; these aliases keep the
// runtime's API.
type (
	Policy          = des.Policy
	ReplicaSpec     = des.ReplicaSpec
	RepairSpec      = des.RepairSpec
	BatchService    = des.BatchService
	Workload        = des.Workload
	Result          = des.Result
	Outcome         = des.Outcome
	Snapshot        = des.Snapshot
	ReplicaSnapshot = des.ReplicaSnapshot
)

// The built-in policies.
const (
	RoundRobin        = des.RoundRobin
	LeastOutstanding  = des.LeastOutstanding
	JoinShortestQueue = des.JoinShortestQueue
	PowerOfTwo        = des.PowerOfTwo
)

// Policies lists every built-in policy.
var Policies = des.Policies

// ParsePolicy resolves a policy name (accepting a few aliases).
func ParsePolicy(s string) (Policy, error) { return des.ParsePolicy(s) }

// Request outcomes and admission errors.
var (
	// ErrClosed rejects submissions after Close.
	ErrClosed    = errors.New("fleet: closed")
	ErrShed      = des.ErrShed
	ErrNoReplica = des.ErrNoReplica
	ErrDeadline  = des.ErrDeadline
	ErrRetries   = des.ErrRetries
)

// Config tunes the runtime: the core's des.Config plus the wall-clock
// pacing factor. The zero value of each field selects the documented
// default; the runtime's MaxRetries defaults to 3 (the core's to 0).
// Workers has no effect: the pacer steps one engine.
type Config struct {
	des.Config
	// TimeScale is the wall-clock pacing factor: the core's event at
	// virtual time t fires once t·TimeScale wall nanoseconds have passed
	// since the clock was anchored (default 1.0 — real time). Values at or
	// below FreeRunScale (e.g. 1e-9) make the fleet free-running.
	TimeScale float64
}

// FreeRunScale is the largest free-running TimeScale: a virtual second in
// at most a wall microsecond, faster than any submitter stamps requests. A
// free-running fleet is not paced. Each Submit fires the core's events up
// to its arrival, and the rest fire only while a Run is in flight or a
// Close or Run waits for the fleet to drain — so an outcome decided after
// the latest submitted arrival is delivered once the fleet drains.
const FreeRunScale = 1e-6

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config {
	c := Config{Config: des.DefaultConfig(), TimeScale: 1}
	c.MaxRetries = 3
	return c
}

// Request is one inference request. ArrivalNS is a virtual timestamp in
// nanoseconds on the workload's clock; latency is measured from it.
type Request struct {
	// ArrivalNS is the request's virtual arrival time.
	ArrivalNS float64
	// BudgetNS is the per-request latency budget (deadline = arrival +
	// budget); 0 means none. Requests that would miss it are dropped
	// without consuming pipeline time.
	BudgetNS float64

	done chan<- Outcome
}

// NewRequest builds a request whose Outcome will be delivered on done. Each
// outcome is sent from its own goroutine, which holds no lock, so done may
// be unbuffered and received after Submit returns; outcomes sharing a
// channel arrive in no set order. Close waits until every one is received.
func NewRequest(arrivalNS, budgetNS float64, done chan<- Outcome) *Request {
	return &Request{ArrivalNS: arrivalNS, BudgetNS: budgetNS, done: done}
}

// Fleet paces one des.Fleet on the wall clock. Create with New; it is safe
// for concurrent use by any number of submitters.
type Fleet struct {
	cfg Config

	// free: TimeScale ≤ FreeRunScale — the pacer steps only to drain or
	// to play a Run's trace.
	free bool

	// mu guards the core and everything below it.
	mu      sync.Mutex
	core    *des.Fleet
	pending map[int]*Request // accepted Submit requests by core id
	lastID  int              // Submit ids count down from -1 (trace ids are >= 0)
	run     chan runOutcome  // the in-flight Run's result slot
	closed  bool
	// draining counts callers in awaitIdle.
	draining int

	// invScale is round(1/TimeScale) when TimeScale is exactly the
	// reciprocal of an integer, else 0; virtualNS uses it for exact
	// integer clock conversion.
	invScale int64
	// epoch anchors virtual time 0 of the core's current timeline to the
	// wall clock (UnixNano).
	epoch atomic.Int64

	wake      chan struct{}  // nudges the pacer after new events
	idle      *sync.Cond     // on mu: broadcast when a Run ends or no work is outstanding
	sending   sync.WaitGroup // outcome sends in flight
	quit      chan struct{}
	exited    chan struct{}
	closeOnce sync.Once
}

type runOutcome struct {
	res *Result
	err error
}

// New builds the fleet and starts its pacer. Callers must Close it to drain
// and stop the pacer.
func New(cfg Config, specs ...ReplicaSpec) (*Fleet, error) {
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	if !(cfg.TimeScale > 0) || math.IsInf(cfg.TimeScale, 0) {
		return nil, fmt.Errorf("fleet: time scale %v", cfg.TimeScale)
	}
	f := &Fleet{
		cfg:     cfg,
		free:    cfg.TimeScale <= FreeRunScale,
		pending: map[int]*Request{},
		wake:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		exited:  make(chan struct{}),
	}
	core, err := des.NewOnline(cfg.Config, &f.mu, f.resolved, specs...)
	if err != nil {
		return nil, err
	}
	f.core = core
	f.idle = sync.NewCond(&f.mu)
	if r := math.Round(1 / cfg.TimeScale); r >= 1 && r <= math.MaxInt64 && 1/r == cfg.TimeScale {
		f.invScale = int64(r)
	}
	f.epoch.Store(time.Now().UnixNano())
	go f.pace()
	return f, nil
}

// resolved is the core's outcome callback (called under mu). The send runs
// on its own goroutine, so a slow receiver never holds the lock.
func (f *Fleet) resolved(id int, out Outcome) {
	if rq, ok := f.pending[id]; ok {
		delete(f.pending, id)
		f.sending.Add(1)
		go func() {
			defer f.sending.Done()
			rq.done <- out
		}()
	}
	f.signalIdle()
}

// signalIdle tells Close and Run the fleet has drained (called under mu).
func (f *Fleet) signalIdle() {
	if f.run == nil && f.core.Outstanding() == 0 {
		f.idle.Broadcast()
	}
}

func (f *Fleet) wakeUp() {
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

// pace is the wall-clock driver: it pops each core event once the wall
// clock reaches its virtual time (absolute deadlines from the epoch, so
// timer overshoot never accumulates), and finishes Run's trace. A
// free-running fleet's pacer holds every event until a Run or a drain
// needs it; its submitters step the core.
func (f *Fleet) pace() {
	defer close(f.exited)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	f.mu.Lock()
	for {
		at, ok := f.core.Next()
		if f.free && f.run == nil && f.draining == 0 {
			ok = false
		}
		var wait <-chan time.Time
		if ok {
			d := time.Duration(at*f.cfg.TimeScale) - time.Duration(time.Now().UnixNano()-f.epoch.Load())
			if d <= 0 {
				f.core.Step()
				f.checkRun()
				// Let submitters in between events.
				f.mu.Unlock()
				f.mu.Lock()
				continue
			}
			timer.Reset(d)
			wait = timer.C
		}
		f.mu.Unlock()
		select {
		case <-wait:
		case <-f.wake:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-f.quit:
			return
		}
		f.mu.Lock()
	}
}

// checkRun hands Run its Result once the core reports the trace over
// (called under mu).
func (f *Fleet) checkRun() {
	if f.run == nil {
		return
	}
	if res, err := f.core.Finished(); res != nil || err != nil {
		f.run <- runOutcome{res, err}
		f.run = nil
		f.idle.Broadcast()
	}
}

// awaitIdle blocks until no request is outstanding and no Run is in flight,
// releasing a free-running pacer meanwhile (called with mu held; returns
// with it held).
func (f *Fleet) awaitIdle() {
	f.draining++
	f.wakeUp()
	for f.run != nil || f.core.Outstanding() != 0 {
		f.idle.Wait()
	}
	f.draining--
}

// VirtualNow returns the current virtual time in nanoseconds on the fleet's
// wall-derived clock — the workload-facing timeline the pacer tracks.
func (f *Fleet) VirtualNow() float64 {
	return f.virtualNS(time.Now().UnixNano() - f.epoch.Load())
}

// virtualNS converts a wall-clock nanosecond delta to virtual nanoseconds.
// Wall deltas are exact integers, so for integer-reciprocal time scales
// (TimeScale = 1/k: real time 1.0, the free-running 1e-9, experiment scales
// like 0.2) the conversion multiplies in integer arithmetic and converts
// once — exact while delta·k fits float64's 2^53 integer range. Past that,
// and for non-reciprocal scales, a single correctly-rounded float64
// division bounds the error at 1 ulp (relative ~1e-16).
func (f *Fleet) virtualNS(wallDeltaNS int64) float64 {
	if f.invScale > 0 && wallDeltaNS >= 0 {
		hi, lo := bits.Mul64(uint64(wallDeltaNS), uint64(f.invScale))
		if hi == 0 && lo <= 1<<53 {
			return float64(lo)
		}
	}
	return float64(wallDeltaNS) / f.cfg.TimeScale
}

// Submit routes the request to a replica's admission queue. It returns nil
// once the request is accepted (its Outcome will arrive on the request's
// done channel; on a free-running fleet, at the latest when the fleet next
// drains), ErrClosed after Close, ErrNoReplica when every replica is
// degraded (counted Unroutable — an outage), and ErrShed when every healthy
// queue is full (counted Shed — overload backpressure). A Submit during a
// Run waits for the Run to finish: the Run owns the fleet's timeline.
func (f *Fleet) Submit(rq *Request) error {
	if rq == nil || rq.done == nil {
		return fmt.Errorf("fleet: request without a done channel")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.run != nil {
		f.idle.Wait()
	}
	if f.closed {
		return ErrClosed
	}
	f.lastID--
	id := f.lastID
	f.pending[id] = rq
	if err := f.core.Submit(id, rq.ArrivalNS, rq.BudgetNS); err != nil {
		delete(f.pending, id)
		return err
	}
	f.checkRun()
	f.wakeUp()
	return nil
}

// Run offers the workload to the fleet and blocks until it completes. The
// trace is serving.Serve's (same seed → same arrivals) on a fresh virtual
// timeline: pipelines start free and the dispatch sampler and round-robin
// cursors restart from the seed, so back-to-back runs on one fleet replay
// identically, while faults, health and crashes carry over. Run first waits
// for earlier Submit work to drain.
func Run(f *Fleet, w Workload) (*Result, error) {
	if !(w.ArrivalRate > 0) || math.IsInf(w.ArrivalRate, 0) {
		return nil, fmt.Errorf("fleet: arrival rate %v", w.ArrivalRate)
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	f.awaitIdle()
	done := make(chan runOutcome, 1)
	f.epoch.Store(time.Now().UnixNano())
	if err := f.core.Begin(w.Trace(), w.Requests, w.BudgetNS); err != nil {
		f.mu.Unlock()
		return nil, err
	}
	f.run = done
	f.wakeUp()
	f.mu.Unlock()
	out := <-done
	return out.res, out.err
}

// locked runs fn on the core under the fleet's lock and nudges the pacer.
func (f *Fleet) locked(fn func(*des.Fleet) error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := fn(f.core)
	f.checkRun()
	f.wakeUp()
	return err
}

// InjectFault installs a fault model on the named replica (nil recovers
// it), resets its fault ledger, and runs one immediate detection sweep; the
// health loop (or Fleet.Sweep) then repairs the residue over subsequent
// sweeps when the replica has a RepairSpec. The model's seed is mixed with
// the replica's identity, so injecting one model fleet-wide still fails
// independent cells per replica. Requests queued on a replica whose health
// hits zero are re-dispatched to healthy replicas (Config.MaxRetries).
func (f *Fleet) InjectFault(name string, m *fault.Model) error {
	return f.locked(func(c *des.Fleet) error { return c.InjectFault(name, m) })
}

// Sweep runs one detection/repair pass on every replica now. The health
// loop runs one every HealthSweepNS of virtual time while faults are
// pending; with the loop disabled (negative HealthSweepNS), tests and
// experiments step self-healing by hand.
func (f *Fleet) Sweep() {
	_ = f.locked(func(c *des.Fleet) error { c.Sweep(); return nil })
}

// apply executes one chaos event now.
func (f *Fleet) apply(kind chaos.Kind, name string, value float64) error {
	return f.locked(func(c *des.Fleet) error {
		return c.Apply(chaos.Event{Kind: kind, Target: name, Value: value})
	})
}

// Crash fail-stops the named replica: its queued work bounces to retry
// routing and dispatch stops choosing it. Restart undoes it.
func (f *Fleet) Crash(name string) error { return f.apply(chaos.Crash, name, 0) }

// Restart returns a crashed replica to service.
func (f *Fleet) Restart(name string) error { return f.apply(chaos.Restart, name, 0) }

// SetSlowFactor installs a fail-slow service multiplier on the named
// replica (1 restores full speed; values < 1 are rejected — chaos degrades,
// it does not overclock).
func (f *Fleet) SetSlowFactor(name string, factor float64) error {
	if !(factor >= 1) || math.IsInf(factor, 0) {
		return fmt.Errorf("fleet: slow factor %v (want >= 1)", factor)
	}
	return f.apply(chaos.Slow, name, factor)
}

// SetLinkPenalty adds ns of degraded NoC/link transfer cost to every batch
// the named replica serves (0 restores the healthy link).
func (f *Fleet) SetLinkPenalty(name string, ns float64) error {
	if !(ns >= 0) || math.IsInf(ns, 0) {
		return fmt.Errorf("fleet: link penalty %v ns", ns)
	}
	return f.apply(chaos.Link, name, ns)
}

// StartChaos replays the schedule on the core's heap: each event fires
// when the core's virtual clock reaches its timestamp. A later Run starts a
// fresh timeline and leaves unfired events behind; give a Run its storm in
// Config.Chaos instead. The returned stop function drops the events not
// yet fired. Events naming replicas the fleet does not have are skipped.
func (f *Fleet) StartChaos(sched *chaos.Schedule) (stop func()) {
	var cancel func()
	_ = f.locked(func(c *des.Fleet) error { cancel = c.ScheduleChaos(sched); return nil })
	return func() { _ = f.locked(func(*des.Fleet) error { cancel(); return nil }) }
}

// Close stops admission, waits for every accepted request to resolve and
// its outcome to be received (graceful drain — queued work still executes,
// and work stranded on degraded replicas is retried elsewhere), then stops
// the pacer. It is idempotent and safe to call concurrently.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.closeOnce.Do(func() {
		f.mu.Lock()
		f.awaitIdle()
		f.mu.Unlock()
		close(f.quit)
	})
	<-f.exited
	f.sending.Wait()
}

// Snapshot returns a point-in-time view of the fleet and its replicas.
func (f *Fleet) Snapshot() *Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.core.Snapshot()
}

// Replicas returns the replica names in construction order.
func (f *Fleet) Replicas() []string { return f.core.ReplicaNames() }
