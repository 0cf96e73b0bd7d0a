package des

import (
	"fmt"
	"math"
)

// Autoscaling and admission-control hooks. Both observe the same O(1)
// Signal; the scaler runs on the virtual-time control loop (every
// Config.ControlPeriodNS), the admitter runs per arrival before dispatch.
// Policies are plain deterministic functions of the signal, so runs stay
// replayable.

// Signal is the fleet-wide state a Scaler or Admitter decides on.
type Signal struct {
	// NowNS is the virtual time of the observation.
	NowNS float64
	// Active and Total count activated vs provisioned replicas.
	Active, Total int
	// Queued is the fleet-wide admission backlog; InFlight counts batch
	// members currently occupying pipelines.
	Queued, InFlight int
	// ArrivalRate is the arrival rate measured over the last control
	// period in requests per virtual second (0 before the first tick, and
	// always 0 when no Scaler is configured — the control loop is what
	// measures it).
	ArrivalRate float64
	// CapacityRPS is the aggregate service capacity of active healthy
	// replicas.
	CapacityRPS float64
}

// Utilization is ArrivalRate over CapacityRPS (0 when capacity is 0).
func (s Signal) Utilization() float64 {
	if s.CapacityRPS <= 0 {
		return 0
	}
	return s.ArrivalRate / s.CapacityRPS
}

// Scaler decides the desired number of active replicas each control tick.
// The fleet clamps the decision to [1, Total] and applies it by activating
// replicas in construction order / deactivating from the end (deactivated
// replicas drain their queues but take no new traffic).
type Scaler interface {
	Decide(sig Signal) int
}

// TargetUtilization scales the active set so measured utilization tracks
// Target, in (0,1]: desired = ceil(active · utilization / Target), clamped
// to [Min, Max] (Max 0 means no cap). With Target 0.7, a burst that pushes
// utilization to 1.4 doubles the active set on the next tick.
type TargetUtilization struct {
	Target   float64
	Min, Max int
}

func (t TargetUtilization) validate() error {
	if !(t.Target > 0 && t.Target <= 1) {
		return fmt.Errorf("des: target utilization %v outside (0,1]", t.Target)
	}
	return nil
}

// Decide implements Scaler.
func (t TargetUtilization) Decide(sig Signal) int {
	desired := sig.Active
	if u := sig.Utilization(); u > 0 {
		desired = int(math.Ceil(float64(sig.Active) * u / t.Target))
	}
	if t.Min > 0 && desired < t.Min {
		desired = t.Min
	}
	if t.Max > 0 && desired > t.Max {
		desired = t.Max
	}
	return desired
}

// Admitter gates each arrival before dispatch; a false verdict sheds the
// request (admission control).
type Admitter interface {
	Admit(sig Signal) bool
}

// QueueCap admits while the fleet-wide backlog stays under
// MaxQueuedPerActive waiting requests per active replica — a load-shedding
// valve that keeps queue delay bounded under heavy-tail bursts. Zero admits
// everything.
type QueueCap struct {
	MaxQueuedPerActive float64
}

func (q QueueCap) validate() error {
	if !(q.MaxQueuedPerActive >= 0) {
		return fmt.Errorf("des: queue cap %v per active replica is negative or NaN", q.MaxQueuedPerActive)
	}
	return nil
}

// Admit implements Admitter.
func (q QueueCap) Admit(sig Signal) bool {
	if q.MaxQueuedPerActive <= 0 || sig.Active == 0 {
		return true
	}
	return float64(sig.Queued) <= q.MaxQueuedPerActive*float64(sig.Active)
}

// signal builds the current Signal from the incrementally maintained
// aggregates (O(1) per call).
func (f *Fleet) signal() Signal {
	return Signal{
		NowNS:       f.eng.Now(),
		Active:      f.active,
		Total:       len(f.replicas),
		Queued:      f.queued,
		InFlight:    f.inFlight,
		ArrivalRate: f.arrivalRate,
		CapacityRPS: f.capacityRPS,
	}
}

// controlTick is the autoscaling control loop: measure the last period's
// arrival rate, ask the scaler for a desired active count, and apply it.
// The loop re-arms while the trace is still arriving or work remains, so
// the event queue drains (and Run returns) once the system is idle.
func (f *Fleet) controlTick() {
	f.arrivalRate = float64(f.arrivalsTick) / f.cfg.ControlPeriodNS * 1e9
	f.arrivalsTick = 0
	if f.scale(f.signal()) && f.logging {
		f.logf("C t=%.3f active=%d rate=%.0f\n", f.eng.Now(), f.active, f.arrivalRate)
	}
	if !f.traceDone || f.queued+f.inFlight > 0 {
		f.eng.ScheduleEvent(f.cfg.ControlPeriodNS, evControl, 0, 0, nil)
	}
}

// scale applies the scaler's decision for sig, clamped to [1, N], and
// reports whether the active set changed.
func (f *Fleet) scale(sig Signal) bool {
	desired := min(max(f.cfg.Scaler.Decide(sig), 1), len(f.replicas))
	if desired == f.active {
		return false
	}
	f.setActive(desired)
	return true
}

// setActive grows the active set from the front of the provisioned pool
// and shrinks it from the back, then recounts cluster dispatch counts and
// the signal aggregates.
func (f *Fleet) setActive(desired int) {
	grow := desired > f.active
	for i := range f.replicas {
		if f.active == desired {
			break
		}
		r := f.replicas[i]
		if !grow {
			r = f.replicas[len(f.replicas)-1-i]
		}
		if r.active != grow {
			r.active = grow
			f.scaleActions++
			if grow {
				f.active++
			} else {
				f.active--
			}
		}
	}
	f.refreshDispatch()
}
