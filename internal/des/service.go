package des

// Replica service in virtual time — the fleet's one batch-pricing
// recurrence. A batch enters the pipeline at
//
//	entry = max(pipeline free, latest member queue-join time,
//	            first queue-join + batch timeout when the timeout closed it)
//
// member i completes at entry + fill + i·interval, requests whose
// completion would overshoot their budget are dropped without consuming
// pipeline time, and the pipeline is next free at entry + occBase +
// kept·interval (occBase is 0 for pipelined replicas, the batched-kernel
// base cost for BatchService replicas). A solo replica without batching
// reduces to serving.Serve's recurrence term for term.

// maybeService starts batches on r while it is idle and work is queued.
func (f *Fleet) maybeService(r *simReplica) {
	for !r.busy && !r.collecting && r.queue.n > 0 {
		if f.cfg.MaxBatch > 1 && r.queue.n < f.cfg.MaxBatch {
			// Partial batch: open a collect window, timed from pickup.
			r.collecting = true
			r.collect = f.eng.ScheduleEvent(f.cfg.BatchTimeoutNS, evCollect, int64(r.id), 0, nil)
			return
		}
		take := 1
		if f.cfg.MaxBatch > 1 {
			take = f.cfg.MaxBatch
		}
		f.executeBatch(r, take, false)
	}
}

func (f *Fleet) onCollectTimeout(r *simReplica) {
	r.collecting = false
	r.collect = Handle{}
	take := r.queue.n
	if take > f.cfg.MaxBatch {
		take = f.cfg.MaxBatch
	}
	if take > 0 {
		f.executeBatch(r, take, true)
	}
	f.maybeService(r)
}

// executeBatch prices a batch of take queued requests on the pipelined
// accelerator and schedules the pipeline-free event. It leaves further
// batch formation to the caller (maybeService loops while the replica is
// idle, e.g. after an all-expired batch).
//
// Chaos degradation applies here: fail-slow multiplies fill and interval,
// a degraded link adds per-batch transfer cost onto fill. Healthy values
// (slow 1, link 0) reproduce the original arithmetic exactly (x·1 == x,
// x+0 == x in IEEE).
func (f *Fleet) executeBatch(r *simReplica, take int, timedOut bool) {
	fill := r.fill*r.slow + r.link
	interval := r.interval * r.slow
	entry := r.nextFree
	first := r.queue.peek()
	kept := 0
	// Two passes over the batch members: the entry time closes over every
	// member before any completion is priced. Queue-join times (enqueued ==
	// arrival for trace arrivals) drive the recurrence; budgets and
	// latencies measure from true arrival.
	for i := 0; i < take; i++ {
		rq := r.queue.buf[(r.queue.head+i)%len(r.queue.buf)]
		if rq.enqueued > entry {
			entry = rq.enqueued
		}
	}
	if timedOut {
		if t := first.enqueued + f.cfg.BatchTimeoutNS; t > entry {
			entry = t
		}
	}
	for i := 0; i < take; i++ {
		rq := r.queue.pop()
		f.queued--
		r.cl.queued.Add(-1)
		if rq.st != nil && (rq.st.done || rq.st.failed) {
			// First-wins cancellation: a copy whose request already
			// resolved is dropped at pop without consuming a slot.
			f.hedgeWasted.Add(1)
			if f.logging {
				f.logf("W t=%.3f id=%d r=%s\n", f.eng.Now(), rq.id, r.name)
			}
			continue
		}
		completion := entry + fill + float64(kept)*interval
		if rq.budget > 0 && completion-rq.arrival > rq.budget {
			r.expired++
			if st := rq.st; st != nil {
				st.expired = true
				st.live--
				if r.breaker != nil {
					r.breaker.Record(f.eng.Now(), false)
				}
				if f.logging {
					f.logf("E t=%.3f id=%d r=%s reason=budget\n", f.eng.Now(), rq.id, r.name)
				}
				f.tryRetry(st)
			} else {
				f.expired.Add(1)
				f.window(f.eng.Now()).Expired++
				if f.logging {
					f.logf("X t=%.3f id=%d r=%s reason=budget\n", f.eng.Now(), rq.id, r.name)
				}
			}
			continue
		}
		if st := rq.st; st != nil {
			// Resilient copy: it occupies its pipeline slot now, but the
			// request resolves at the virtual completion time so a faster
			// hedge can still win (see chaos.go).
			st.live--
			st.pending++
			if r.breaker != nil {
				r.breaker.Record(f.eng.Now(), true)
			}
			f.eng.AtEvent(completion, evResolve, int64(r.id), completion, st)
		} else if r.stage < f.cfg.Shards-1 {
			// Sharded chain: this stage's completion hands the request to the
			// next stage after the priced transfer. The hop event carries the
			// original arrival so budgets and latency stay anchored there,
			// while the hop time becomes the next queue-join (enqueued) time.
			hop := completion + f.cfg.StageTransferNS[r.stage]
			r.served++
			if f.logging {
				f.logf("P t=%.3f id=%d r=%s c=%.3f hop=%.3f\n", f.eng.Now(), rq.id, r.name, completion, hop)
			}
			f.eng.AtEvent(hop, evStageHop, int64(rq.id)<<24|int64(rq.attempts)<<16|int64(r.stage+1), rq.arrival, nil)
		} else {
			latency := completion - rq.arrival
			f.record(r, latency)
			f.completed.Add(1)
			r.served++
			r.cl.served++
			f.window(completion).Completed++
			if completion > f.makespan {
				f.makespan = completion
			}
			if f.logging {
				f.logf("S t=%.3f id=%d r=%s e=%.3f c=%.3f\n", f.eng.Now(), rq.id, r.name, entry, completion)
			}
		}
		kept++
	}
	if kept == 0 {
		f.rescore(r)
		return
	}
	r.batches++
	r.batchSum += int64(kept)
	r.nextFree = entry + r.occBase*r.slow + float64(kept)*interval
	r.busyNS += r.nextFree - entry
	r.busy = true
	r.inFlight = kept
	f.inFlight += kept
	r.cl.inFlight += kept
	f.rescore(r)
	f.eng.AtEvent(r.nextFree, evFree, int64(r.id), 0, nil)
}

// onFree fires when the pipeline can accept its next batch.
func (f *Fleet) onFree(r *simReplica) {
	r.busy = false
	f.inFlight -= r.inFlight
	r.cl.inFlight -= r.inFlight
	r.inFlight = 0
	f.rescoreLoad(r)
	if f.logging {
		f.logf("F t=%.3f r=%s\n", f.eng.Now(), r.name)
	}
	f.maybeService(r)
}
