package des

import "autohet/internal/chaos"

// Chaos injection and client-side resilience on the event queue. Fault
// events (Config.Chaos) fire at their virtual timestamps: a crash
// fail-stops a replica (queued copies bounce or fail; the in-flight batch,
// already committed to the pipeline, completes), a restart returns it with
// its pipeline free no earlier than now, fail-slow multiplies the service
// recurrence, a degraded link adds per-batch transfer cost, and a fault
// storm lands in the fault ledger like InjectFault (health.go).
//
// Resilience (Config.Resilience) wraps requests in a shared reqState so a
// request can have several copies in flight: the primary, a hedge launched
// after a latency-quantile delay, and retries re-dispatched with jittered
// exponential backoff after a copy is lost. The first copy to complete
// wins (st.done); every other copy is cancelled where it sits — skipped at
// queue pop without consuming a pipeline slot, or counted wasted when its
// completion event fires late. Because a winner must be *known* before a
// loser can be skipped, resilient completions resolve at their virtual
// completion time via deferred events rather than instantly at batch
// pricing; plain requests (st == nil) still resolve at pricing.
//
// Everything here is single-goroutine on the DES event loop; determinism
// (same config + seeds + schedule → byte-identical event log) is asserted
// in tests and CI.

// reqState is the shared fate of one resilient request across its copies.
type reqState struct {
	id      int
	arrival float64
	budget  float64

	attempts     int  // dispatches so far (primary = 1, hedge and retries add)
	live         int  // copies sitting in admission queues
	pending      int  // completion events scheduled but not yet fired
	retryPending bool // a backoff timer will re-dispatch
	done         bool // resolved: a copy completed
	failed       bool // resolved: every avenue exhausted
	expired      bool // some copy missed the budget (final loss counts as Expired)

	hedge   Handle // pending hedge launch (zero once fired or cancelled)
	primary *simReplica
}

// newState wraps an arrival when any resilience policy is on.
func (f *Fleet) newState(id int, arrival, budget float64) *reqState {
	if !f.res.Enabled() {
		return nil
	}
	return &reqState{id: id, arrival: arrival, budget: budget}
}

// applyChaos executes one schedule event at the current virtual time.
// Events naming unknown replicas log and fall through — a schedule may name
// replicas a particular fleet does not have. A replica that stops taking
// traffic (crash, or a fault storm driving health to zero) bounces its
// queue; a restarted one resumes with its pipeline free no earlier than
// now.
func (f *Fleet) applyChaos(ev chaos.Event) {
	now := f.eng.Now()
	f.chaosEvents.Add(1)
	if f.logging {
		f.logf("K t=%.3f kind=%s target=%s v=%g\n", now, ev.Kind, ev.Target, ev.Value)
	}
	r := f.replicaByName(ev.Target)
	if r == nil {
		return
	}
	was := r.routable()
	if !r.apply(ev, r.name, f.cfg.Seed) {
		return
	}
	switch ev.Kind {
	case chaos.Slow, chaos.Link:
		return // service degradation only: routing is unchanged
	case chaos.Restart:
		if r.nextFree < now {
			r.nextFree = now
		}
	}
	reason := "degraded"
	if ev.Kind == chaos.Crash {
		reason = "crash"
	}
	f.afterHealthChange(r, was, reason)
}

func (f *Fleet) replicaByName(name string) *simReplica {
	for _, r := range f.replicas {
		if r.name == name {
			return r
		}
	}
	return nil
}

// refreshDispatch rebuilds the per-cluster dispatchable counts, the pick
// index and the O(1) signal aggregates (active replicas, healthy capacity)
// from scratch: at build time and after chaos, a fault, a repair sweep or
// the autoscaler changes a replica's health or routability.
func (f *Fleet) refreshDispatch() {
	for _, cl := range f.clusters {
		cl.dispatchable = 0
	}
	f.active, f.capacityRPS = 0, 0
	for _, r := range f.replicas {
		if r.dispatchable() {
			r.cl.dispatchable++
		}
		if r.active {
			f.active++
			if r.healthy() {
				f.capacityRPS += r.capacityRPS
			}
		}
	}
	f.liveClusters = 0
	for _, cl := range f.clusters {
		if cl.dispatchable > 0 {
			f.liveClusters++
		}
	}
	if f.pick != nil {
		f.pick.rebuild(f.replicas)
	}
}

// route commits the final placement to r's breaker (probe claiming).
func (f *Fleet) route(r *simReplica) {
	if r.breaker != nil {
		r.breaker.OnRoute(f.eng.Now())
	}
}

// failCopy handles a copy lost before service (a crash or degrade drain).
// Plain requests bounce while Config.MaxRetries allows and fail after;
// resilient ones consult the retry policy.
func (f *Fleet) failCopy(rq simReq, r *simReplica, reason string) {
	now := f.eng.Now()
	if r.breaker != nil {
		r.breaker.Record(now, false)
	}
	st := rq.st
	if st == nil {
		if int(rq.attempts) < f.cfg.MaxRetries {
			f.bounce(rq, r)
			return
		}
		f.failed.Add(1)
		f.window(now).Failed++
		if f.logging {
			f.logf("X t=%.3f id=%d r=%s reason=%s\n", now, rq.id, r.name, reason)
		}
		return
	}
	if st.done || st.failed {
		return // cancelled copy swept out with the queue
	}
	st.live--
	if f.logging {
		f.logf("E t=%.3f id=%d r=%s reason=%s\n", now, rq.id, r.name, reason)
	}
	f.tryRetry(st)
}

// tryRetry schedules a backoff re-dispatch when the policy, attempt count,
// and token budget allow; otherwise it settles the request if nothing else
// is in flight.
func (f *Fleet) tryRetry(st *reqState) {
	if rp := f.res.Retry; rp != nil && st.attempts < rp.MaxAttempts && f.retryBudget.Spend() {
		st.retryPending = true
		st.attempts++
		delay := rp.BackoffNS(st.attempts-1, f.retryRng)
		f.retried.Add(1)
		if f.logging {
			f.logf("R t=%.3f id=%d attempt=%d wait=%.3f\n", f.eng.Now(), st.id, st.attempts, delay)
		}
		f.eng.ScheduleEvent(delay, evRetry, 0, 0, st)
		return
	}
	f.settle(st)
}

// redispatch is the backoff timer firing: route a fresh copy, or settle
// when no route exists.
func (f *Fleet) redispatch(st *reqState) {
	st.retryPending = false
	if st.done || st.failed {
		return
	}
	r := f.repick(0)
	if r == nil {
		f.settle(st)
		return
	}
	st.live++
	f.route(r)
	f.enqueue(r, simReq{id: st.id, arrival: st.arrival, budget: st.budget, enqueued: f.eng.Now(), st: st})
}

// settle finalizes a resilient request once no copy, completion event, or
// retry timer remains. A budget miss anywhere makes the loss an expiry;
// otherwise it is a failure (crash losses with retries exhausted).
func (f *Fleet) settle(st *reqState) {
	if st.done || st.failed || st.retryPending || st.live+st.pending > 0 {
		return
	}
	st.failed = true
	f.eng.Cancel(st.hedge)
	st.hedge = Handle{}
	now := f.eng.Now()
	if st.expired {
		f.expired.Add(1)
		f.window(now).Expired++
		if f.logging {
			f.logf("X t=%.3f id=%d reason=budget\n", now, st.id)
		}
	} else {
		f.failed.Add(1)
		f.window(now).Failed++
		if f.logging {
			f.logf("X t=%.3f id=%d reason=failed\n", now, st.id)
		}
	}
}

// armHedge schedules the backup launch for a fresh primary dispatch: after
// the observed latency quantile (floored until enough samples), a still-
// unresolved request gets a second copy on another replica.
func (f *Fleet) armHedge(st *reqState) {
	hp := f.res.Hedge
	if hp == nil || st == nil {
		return
	}
	d := hp.DelayNS(f.hedgeHist.Count(), f.hedgeHist.Quantile(hp.Quantile))
	st.hedge = f.eng.ScheduleEvent(d, evHedge, 0, 0, st)
}

// fireHedge launches the backup copy (first-wins with the primary).
func (f *Fleet) fireHedge(st *reqState) {
	st.hedge = Handle{}
	if st.done || st.failed {
		return
	}
	r := f.repick(0)
	if r == st.primary && r != nil {
		// A hedge on the replica already serving the primary buys nothing;
		// prefer any other replica with queue space.
		if alt := f.fallback(r); alt != nil {
			r = alt
		}
	}
	if r == nil {
		return // primary still live; nothing to hedge onto
	}
	st.attempts++
	st.live++
	f.hedged.Add(1)
	f.route(r)
	now := f.eng.Now()
	if f.logging {
		f.logf("G t=%.3f id=%d r=%s\n", now, st.id, r.name)
	}
	f.enqueue(r, simReq{id: st.id, arrival: st.arrival, budget: st.budget, enqueued: now, st: st})
}

// resolveCopy fires at a resilient copy's virtual completion time: the
// first copy wins the request, later ones count as wasted hedges.
func (f *Fleet) resolveCopy(st *reqState, r *simReplica, completion float64) {
	st.pending--
	now := f.eng.Now()
	if st.done || st.failed {
		f.hedgeWasted.Add(1)
		if f.logging {
			f.logf("W t=%.3f id=%d r=%s\n", now, st.id, r.name)
		}
		return
	}
	st.done = true
	f.eng.Cancel(st.hedge)
	st.hedge = Handle{}
	latency := completion - st.arrival
	f.record(r, latency)
	f.completed.Add(1)
	f.hedgeHist.Observe(latency)
	if f.retryBudget != nil {
		f.retryBudget.Earn()
	}
	r.served++
	r.cl.served++
	f.window(completion).Completed++
	if completion > f.makespan {
		f.makespan = completion
	}
	if f.logging {
		f.logf("S t=%.3f id=%d r=%s c=%.3f\n", now, st.id, r.name, completion)
	}
}

// window returns the stats bucket for virtual time t, or a discard sink
// when windowing is off.
func (f *Fleet) window(t float64) *WindowStats {
	if f.cfg.StatsWindowNS <= 0 {
		return &f.winDiscard
	}
	return f.windowAt(max(0, int(t/f.cfg.StatsWindowNS)))
}

// windowAt returns window i of the run, growing the list to reach it.
func (f *Fleet) windowAt(i int) *WindowStats {
	for len(f.windows) <= i {
		f.windows = append(f.windows, WindowStats{StartNS: float64(len(f.windows)) * f.cfg.StatsWindowNS})
	}
	return &f.windows[i]
}

// add folds another source's counts for the same window into w.
func (w *WindowStats) add(o *WindowStats) {
	w.Arrived += o.Arrived
	w.Completed += o.Completed
	w.Expired += o.Expired
	w.Failed += o.Failed
	w.Shed += o.Shed
	w.Unroutable += o.Unroutable
}
