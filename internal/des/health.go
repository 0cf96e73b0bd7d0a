package des

import (
	"fmt"
	"math"

	"autohet/internal/chaos"
	"autohet/internal/fault"
)

// Replica health: fault injection, the online detect/repair loop, and the
// one switch that applies a chaos event, so a chaos event's effect on
// routing is written once.

// degradeThreshold is the uncovered stuck-at cell fault rate at which a
// replica's health score reaches zero and it stops taking traffic. Below
// it, health falls linearly — 1 − uncoveredRate/degradeThreshold — and the
// queue-aware policies shift traffic away proportionally.
const degradeThreshold = 0.01

// replicaHealth is everything chaos events, fault injection and repair
// sweeps change on one replica. Fault rates are stuck-at cell fractions.
type replicaHealth struct {
	crashed bool // fail-stopped: takes no traffic until restarted
	// health is 1 − (pending+uncovered)/degradeThreshold clamped to [0,1]:
	// 1 pristine, 0 degraded (takes no traffic). Queue-aware policies
	// divide by it, so a half-healthy replica looks twice as loaded.
	health float64
	slow   float64 // fail-slow multiplier on fill and interval (1 = healthy)
	link   float64 // degraded-link transfer cost added per batch (0 = healthy)
	// ledger is nil for a replica that never had faults nor a RepairSpec
	// (health 1), which keeps the common replica small. An injection
	// replaces it rather than editing it, so copies of a replicaHealth
	// stay independent.
	ledger *faultLedger
}

// faultLedger is a replica's fault and repair accounting.
type faultLedger struct {
	faults    *fault.Model // installed model, seed mixed with the replica name
	repair    *RepairSpec  // nil: faults land uncovered at once
	pending   float64      // injected rate not yet seen by a detection sweep
	uncovered float64      // detected rate beyond spare capacity, masked
	spareLeft float64      // remaining spare capacity
	repairs   int64        // sweeps that detected a nonzero rate
}

// routable reports whether chaos and faults leave the replica in service.
func (h *replicaHealth) routable() bool { return !h.crashed && h.health > 0 }

// replicaSeed mixes the replica's identity into a fault seed (FNV-1a over
// the name) so identical fault models injected fleet-wide still produce
// independent per-chip fault maps, as real silicon does.
func replicaSeed(name string, seed int64) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return seed ^ int64(h)
}

// inject installs (or clears, with nil) the fault model, resets the ledger
// to the model's stuck-at rate against a full spare budget, and runs one
// immediate detection sweep. Without a RepairSpec that sweep detects
// everything and repairs nothing, so health lands at 1 − rate/threshold at
// once; with one, the first sweep repairs what it detects and the health
// loop keeps sweeping the missed residue.
func (h *replicaHealth) inject(m *fault.Model, name string) {
	old := h.ledger
	if old == nil && m == nil {
		h.health = 1
		return
	}
	l := &faultLedger{pending: m.CellFaultRate()}
	if old != nil {
		l.repair, l.repairs = old.repair, old.repairs
	}
	if m != nil {
		mm := *m
		mm.Seed = replicaSeed(name, m.Seed)
		l.faults = &mm
	}
	if l.repair != nil {
		l.spareLeft = l.repair.Capacity
	}
	h.ledger = l
	h.sweep()
}

// sweep runs one detection/repair pass: detect (1−miss) of the pending
// faults, repair them from the remaining spare capacity, mask the overflow
// into the uncovered residue, and refresh the health score. A sweep never
// lowers health. It reports whether it detected anything.
func (h *replicaHealth) sweep() bool {
	l := h.ledger
	if l == nil {
		return false
	}
	detected := l.pending
	if l.repair != nil {
		detected *= 1 - l.repair.MissRate
	}
	if detected > 0 {
		l.pending -= detected
		repaired := math.Min(detected, l.spareLeft)
		l.spareLeft -= repaired
		l.uncovered += detected - repaired
		l.repairs++
	}
	h.health = math.Min(1, math.Max(0, 1-(l.pending+l.uncovered)/degradeThreshold))
	return detected > 0
}

// pending reports undetected faults left for the health loop.
func (h *replicaHealth) pending() bool { return h.ledger != nil && h.ledger.pending > 0 }

// apply changes the state for one chaos event and reports whether it took
// effect (crashing a crashed replica or restarting a running one does
// not). A fault storm lands as an injected stuck-at-0 model seeded with the
// fleet seed, healed by the repair loop like any other injection.
func (h *replicaHealth) apply(ev chaos.Event, name string, seed int64) bool {
	switch ev.Kind {
	case chaos.Crash:
		if h.crashed {
			return false
		}
		h.crashed = true
	case chaos.Restart:
		if !h.crashed {
			return false
		}
		h.crashed = false
	case chaos.Slow:
		h.slow = ev.Value
	case chaos.Link:
		h.link = ev.Value
	case chaos.Faults:
		var m *fault.Model
		if ev.Value > 0 {
			m = &fault.Model{StuckAtZero: ev.Value, Seed: seed}
		}
		h.inject(m, name)
	default:
		return false
	}
	return true
}

// InjectFault installs a fault model on the named replica (nil recovers
// it) at the current virtual time: the ledger resets to the model's rate,
// one immediate sweep runs, and the health loop repairs the residue when
// the replica has a RepairSpec. A replica whose health reaches zero bounces
// its queue (Config.MaxRetries).
func (f *Fleet) InjectFault(name string, m *fault.Model) error {
	if err := m.Validate(); err != nil {
		return err
	}
	r := f.replicaByName(name)
	if r == nil {
		return fmt.Errorf("fleet: no replica %q", name)
	}
	was := r.routable()
	r.inject(m, r.name)
	if f.logging {
		f.logf("I t=%.3f r=%s rate=%g h=%.6f\n", f.eng.Now(), r.name, m.CellFaultRate(), r.health)
	}
	f.afterHealthChange(r, was, "degraded")
	return nil
}

// afterHealthChange refreshes routing after r's routability may have
// changed, drains r if it just stopped taking traffic, and arms the health
// loop if the change left undetected faults.
func (f *Fleet) afterHealthChange(r *simReplica, was bool, reason string) {
	f.refreshDispatch()
	if was && !r.routable() {
		f.drain(r, reason)
	}
	f.armSweep()
}

// Sweep runs one detection/repair pass on every replica now. The health
// loop calls it every HealthSweepNS; with the loop disabled, callers step
// self-healing by hand.
func (f *Fleet) Sweep() { f.sweepAll() }

// sweepAll is Sweep, reporting whether any replica detected faults.
func (f *Fleet) sweepAll() (detected bool) {
	for _, r := range f.replicas {
		if r.sweep() {
			detected = true
		}
	}
	f.refreshDispatch()
	if f.logging {
		f.logf("V t=%.3f\n", f.eng.Now())
	}
	return detected
}

// armSweep schedules the next health-loop sweep while any replica has
// undetected faults (once none do, further sweeps would change nothing).
// The loop also stops after a sweep that detects nothing: a pending rate
// halved down to the smallest subnormal no longer splits, so its sweeps
// would repeat forever. The next health change re-arms it.
func (f *Fleet) armSweep() {
	if f.sweepArmed || !(f.cfg.HealthSweepNS > 0) {
		return
	}
	for _, r := range f.replicas {
		if r.pending() {
			f.sweepArmed = true
			f.eng.ScheduleEvent(f.cfg.HealthSweepNS, evSweep, 0, 0, nil)
			return
		}
	}
}

func (f *Fleet) onSweep() {
	f.sweepArmed = false
	if f.sweepAll() {
		f.armSweep()
	}
}

// drain empties a replica that stopped taking traffic (crash, or health
// reaching zero): its forming batch is abandoned and every queued copy is
// bounced. The executing batch, already committed to the pipeline,
// completes.
func (f *Fleet) drain(r *simReplica, reason string) {
	if r.collecting {
		f.eng.Cancel(r.collect)
		r.collecting = false
		r.collect = Handle{}
	}
	for r.queue.n > 0 {
		rq := r.queue.pop()
		f.queued--
		r.cl.queued.Add(-1)
		f.rescore(r)
		f.failCopy(rq, r, reason)
	}
}
