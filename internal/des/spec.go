package des

import (
	"fmt"
	"math"

	"autohet/internal/accel"
	"autohet/internal/des/trace"
	"autohet/internal/fault"
	"autohet/internal/serving"
	"autohet/internal/sim"
)

// The fleet's vocabulary: dispatch policies, replica specs, workloads and
// snapshots. internal/fleet re-exports these as aliases, so both drivers of
// the one core (the trace-fed RunTrace and the wall-clock paced fleet
// runtime) speak the same types.

// Policy names a dispatcher load-balancing policy.
type Policy string

// The built-in policies.
const (
	// RoundRobin cycles through healthy replicas regardless of load.
	RoundRobin Policy = "rr"
	// LeastOutstanding picks the replica with the fewest queued+executing
	// requests.
	LeastOutstanding Policy = "least-outstanding"
	// JoinShortestQueue picks the replica with the shortest admission queue.
	JoinShortestQueue Policy = "jsq"
	// PowerOfTwo samples two random replicas and picks the shorter queue —
	// near-JSQ quality at O(1) inspection cost.
	PowerOfTwo Policy = "p2c"
)

// Policies lists every built-in policy.
var Policies = []Policy{RoundRobin, LeastOutstanding, JoinShortestQueue, PowerOfTwo}

// ParsePolicy resolves a policy name (accepting a few aliases).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "rr", "roundrobin", "round-robin":
		return RoundRobin, nil
	case "lo", "least-outstanding", "leastoutstanding":
		return LeastOutstanding, nil
	case "jsq", "join-shortest-queue":
		return JoinShortestQueue, nil
	case "p2c", "power-of-two", "poweroftwo":
		return PowerOfTwo, nil
	}
	return "", fmt.Errorf("fleet: unknown policy %q (have %v)", s, Policies)
}

// RepairSpec configures a replica's online self-repair: how much stuck-cell
// rate its provisioned spares can absorb and how lossy each detection sweep
// is. The zero value detects perfectly but can repair nothing — faults are
// masked (bounded error) and the health score carries the full residual.
type RepairSpec struct {
	// Capacity is the total stuck-at cell rate the replica's provisioned
	// spares can absorb before masking takes over — typically
	// repair.Provision.MaxCellRate of the design behind the replica.
	Capacity float64
	// MissRate is the probability one detection sweep misses a pending
	// fault. Sweeps are independent, so the undetected residue decays
	// geometrically as the online loop runs.
	MissRate float64
}

// Validate rejects malformed repair specs.
func (s *RepairSpec) Validate() error {
	if s == nil {
		return nil
	}
	if !(s.Capacity >= 0) || math.IsInf(s.Capacity, 0) {
		return fmt.Errorf("fleet: repair capacity %v", s.Capacity)
	}
	if !(s.MissRate >= 0 && s.MissRate < 1) {
		return fmt.Errorf("fleet: repair miss rate %v outside [0,1)", s.MissRate)
	}
	return nil
}

// BatchService prices a replica's service directly from measured
// batched-kernel costs: a formed batch of B kept requests occupies the
// engine for BaseNS + B·PerInputNS, with member i completing at
// entry + BaseNS + (i+1)·PerInputNS. Derive the two terms from a measured
// pipeline with sim.PipelineResult.BatchCost(), or from a wall-clock
// batched-kernel benchmark. The completion arithmetic is the pipelined
// recurrence with fill = BaseNS + PerInputNS; what changes is occupancy —
// a batched kernel holds the engine for the whole BaseNS + B·PerInputNS,
// whereas a pipeline accepts its next batch while the last one drains.
type BatchService struct {
	// BaseNS is the per-batch cost paid once regardless of batch size
	// (weight-plane walk, dispatch, scratch setup).
	BaseNS float64
	// PerInputNS is the marginal cost of one more batch member.
	PerInputNS float64
}

// Validate rejects malformed batch service models.
func (s *BatchService) Validate() error {
	if s == nil {
		return nil
	}
	if !(s.PerInputNS > 0) || math.IsInf(s.PerInputNS, 0) {
		return fmt.Errorf("fleet: batch service per-input cost %v ns", s.PerInputNS)
	}
	if !(s.BaseNS >= 0) || math.IsInf(s.BaseNS, 0) {
		return fmt.Errorf("fleet: batch service base cost %v ns", s.BaseNS)
	}
	return nil
}

// ReplicaSpec describes one accelerator instance in the fleet.
type ReplicaSpec struct {
	// Name identifies the replica in snapshots, logs, chaos schedules and
	// fault injection (default "r<index>").
	Name string
	// Pipeline supplies the replica's service timing (fill latency and
	// steady-state initiation interval). Required unless Service is set.
	Pipeline *sim.PipelineResult
	// Service, when set, prices batches from batched-kernel costs instead
	// of the pipelined recurrence: member i of a batch completes at
	// entry + BaseNS + (i+1)·PerInputNS and the engine stays busy for
	// BaseNS + kept·PerInputNS. Overrides Pipeline timing when both are
	// given.
	Service *BatchService
	// Plan optionally records the mapped design behind the pipeline so
	// snapshots and cluster stats can report silicon area.
	Plan *accel.Plan
	// Faults optionally injects device non-idealities from the start; the
	// stuck-at cell rate left uncovered after repair, measured against
	// the degrade threshold (1%), sets the replica's health score.
	Faults *fault.Model
	// Repair enables online self-repair: detection sweeps (every
	// Config.HealthSweepNS of virtual time, or Fleet.Sweep) move pending
	// faults onto spare capacity until it runs out. Nil means faults land
	// uncovered at once.
	Repair *RepairSpec
}

// Workload describes an open-loop Poisson request stream offered to the
// fleet, mirroring serving.Workload so fleet and closed-form serving runs
// are comparable on identical arrival traces.
type Workload struct {
	// ArrivalRate is the mean fleet-wide request rate in requests per
	// virtual second (Poisson process).
	ArrivalRate float64
	// Requests is the number of requests to offer.
	Requests int
	// Seed seeds the arrival process. 0 selects serving.DefaultSeed —
	// the same contract as serving.Workload, so the zero value is a
	// fixed, documented stream.
	Seed int64
	// BudgetNS is the per-request latency budget (0 = none).
	BudgetNS float64
}

// Trace is the workload's arrival process: serving.Serve's construction,
// so the same seed replays the same arrivals.
func (w Workload) Trace() trace.Generator {
	seed := w.Seed
	if seed == 0 {
		seed = serving.DefaultSeed
	}
	return trace.Poisson(w.ArrivalRate, seed)
}

// ReplicaSnapshot is a point-in-time view of one replica.
type ReplicaSnapshot struct {
	Name string
	// Stage is the pipeline stage the replica serves (0 without sharding).
	Stage int
	// Health is the continuous health score in [0,1]: 1 − uncovered fault
	// rate over the 1% degrade threshold. Queue-aware dispatch weights by
	// it; Degraded reports the score having reached zero (or a crash).
	Health   float64
	Degraded bool
	// Faults is a copy of the installed fault model (nil when pristine);
	// its seed carries the replica's identity mixed in.
	Faults *fault.Model
	// Repairs counts detection sweeps that found a nonzero pending fault
	// rate (and repaired or masked it).
	Repairs int64
	// Queued is the current admission-queue depth; Outstanding adds
	// requests being executed.
	Queued, Outstanding int
	Served, Batches     int64
	Expired             int64
	// MeanBatch is the average executed batch size.
	MeanBatch float64
	// Latency distribution of requests served by this replica.
	MeanNS, P50NS, P95NS, P99NS, MaxNS float64
	// CapacityRPS is the replica's pipelined service ceiling.
	CapacityRPS float64
	// AreaUM2 is the wrapped plan's silicon area (0 when the replica was
	// built from a bare PipelineResult).
	AreaUM2 float64
}

// Snapshot is a point-in-time view of the whole fleet over its lifetime.
// Shed counts overload rejections (every healthy queue full); Unroutable
// counts outage rejections (no healthy replica at all) — chaos experiments
// need the two apart to tell backpressure from blast radius.
type Snapshot struct {
	Submitted, Completed, Shed, Unroutable, Expired, Retried, Failed int64
	// Fleet-wide latency distribution over completed requests.
	MeanNS, P50NS, P95NS, P99NS, MaxNS float64
	Replicas                           []ReplicaSnapshot
}

// String summarizes the fleet snapshot in one line.
func (s *Snapshot) String() string {
	return fmt.Sprintf("fleet[%d replicas]: %d submitted, %d completed, %d shed, %d unroutable, %d expired, %d retried, %d failed; p50 %.4g ns, p99 %.4g ns",
		len(s.Replicas), s.Submitted, s.Completed, s.Shed, s.Unroutable, s.Expired, s.Retried, s.Failed, s.P50NS, s.P99NS)
}
