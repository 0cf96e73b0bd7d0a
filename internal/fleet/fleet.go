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
// routing — behind a mutex. RunTrace feeds it a whole arrival trace and
// pops each event in the caller's goroutine once the wall clock reaches
// virtual time × Config.TimeScale, so it returns exactly the Result
// des.Fleet.RunTrace returns for the same config and trace, only paced; Run
// is its Poisson-workload wrapper. The lock is released while a run sleeps
// and between events, so the live autohet_fleet_* gauges, Snapshot,
// InjectFault and Sweep interleave with a run in flight. Nothing fires
// between runs.
package fleet

import (
	"fmt"
	"math"
	"sync"
	"time"

	"autohet/internal/des"
	"autohet/internal/des/trace"
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

// Config tunes the runtime: the core's des.Config, defaults included, plus
// the wall-clock pacing factor. Workers has no effect: a run steps one
// engine.
type Config struct {
	des.Config
	// TimeScale is the wall-clock pacing factor: the core's event at
	// virtual time t fires once t·TimeScale wall nanoseconds have passed
	// since the run started (default 1.0 — real time). A tiny scale such as
	// 1e-9 runs as fast as the host allows.
	TimeScale float64
}

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config {
	return Config{Config: des.DefaultConfig(), TimeScale: 1}
}

// Fleet paces one des.Fleet on the wall clock. Create with New; its
// methods are safe for concurrent use, and one run is in flight at a time.
type Fleet struct {
	cfg Config
	// mu guards the core; the autohet_fleet_* gauges take it too.
	mu   sync.Mutex
	core *des.Fleet
}

// New builds the fleet. It starts nothing: events fire only inside a run.
func New(cfg Config, specs ...ReplicaSpec) (*Fleet, error) {
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 1
	}
	if !(cfg.TimeScale > 0) || math.IsInf(cfg.TimeScale, 0) {
		return nil, fmt.Errorf("fleet: time scale %v", cfg.TimeScale)
	}
	f := &Fleet{cfg: cfg}
	core, err := des.NewOnline(cfg.Config, &f.mu, specs...)
	if err != nil {
		return nil, err
	}
	f.core = core
	return f, nil
}

// Run offers the Poisson workload to the fleet (serving.Serve's trace:
// same seed → same arrivals) and blocks until it completes.
func Run(f *Fleet, w Workload) (*Result, error) {
	if !(w.ArrivalRate > 0) || math.IsInf(w.ArrivalRate, 0) {
		return nil, fmt.Errorf("fleet: arrival rate %v", w.ArrivalRate)
	}
	return RunTrace(f, w.Trace(), w.Requests, w.BudgetNS)
}

// RunTrace offers requests arrivals drawn from gen, each with the latency
// budget budgetNS (0 = none), and blocks until the run completes. The run
// starts on a fresh virtual timeline: pipelines start free and the
// dispatch sampler and round-robin cursors restart from the seed, so
// back-to-back runs on one fleet replay identically, while faults, health
// and crashes carry over. Each event fires once the wall clock, measured
// from the start of the run, reaches its virtual time × TimeScale
// (absolute deadlines, so sleep overshoot never accumulates).
func RunTrace(f *Fleet, gen trace.Generator, requests int, budgetNS float64) (*Result, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.core.Begin(gen, requests, budgetNS); err != nil {
		return nil, err
	}
	start := time.Now()
	for {
		if res, err := f.core.Finished(); res != nil || err != nil {
			return res, err
		}
		at, _ := f.core.Next()
		if d := time.Duration(at*f.cfg.TimeScale) - time.Since(start); d > 0 {
			f.mu.Unlock()
			time.Sleep(d)
			f.mu.Lock()
		}
		f.core.Step()
		// Let scrapes and snapshots in between events.
		f.mu.Unlock()
		f.mu.Lock()
	}
}

// InjectFault installs a fault model on the named replica (nil recovers
// it), resets its fault ledger, and runs one immediate detection sweep; the
// health loop (or Fleet.Sweep) then repairs the residue over subsequent
// sweeps when the replica has a RepairSpec. The model's seed is mixed with
// the replica's identity, so injecting one model fleet-wide still fails
// independent cells per replica. Requests queued on a replica whose health
// hits zero are re-dispatched to healthy replicas (Config.MaxRetries).
func (f *Fleet) InjectFault(name string, m *fault.Model) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.core.InjectFault(name, m)
}

// Sweep runs one detection/repair pass on every replica now. The health
// loop runs one every HealthSweepNS of virtual time during a run while
// faults are pending; with the loop disabled (negative HealthSweepNS),
// tests and experiments step self-healing by hand.
func (f *Fleet) Sweep() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.core.Sweep()
}

// Snapshot returns a point-in-time view of the fleet and its replicas.
func (f *Fleet) Snapshot() *Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.core.Snapshot()
}
