package des

import (
	"fmt"
	"math"
)

// Two-level dispatch: the cluster policy picks a cluster among those with
// at least one dispatchable replica, the replica policy picks within it,
// and a full queue falls back to scanning the cluster, then the fleet. Both
// levels share one policy implementation (choose). JSQ and
// least-outstanding replica picks read a tournament tree instead
// (pickindex.go): O(1) per pick plus O(log group) per score change,
// degraded and deactivated replicas included. RR and P2C picks, and picks
// filtered by circuit breakers, keep the scan: on the all-dispatchable
// path it is pure index arithmetic (no per-arrival allocation); fleets with
// degraded or deactivated replicas pay for a filtered candidate scan (into
// reusable scratch buffers).

// arrive admits and dispatches one request at the current virtual time.
// Order: brownout (cheapest — priority shedding under backlog), cluster
// pick, admission hook (after the pick so the rejection attributes to the
// cluster it would have loaded), replica pick with breaker filtering, then
// queue-full fallback. The cluster pick moving ahead of the Admit hook only
// changes behavior for admission-shed requests under a state-consuming
// cluster policy (round robin / power-of-two) — runs stay deterministic.
func (f *Fleet) arrive(id int, arrival, budget float64) {
	f.submitted.Add(1)
	f.arrivalsTick++
	f.window(arrival).Arrived++
	if f.logging {
		f.logf("A t=%.3f id=%d\n", arrival, id)
	}
	if bp := f.res.Brownout; bp != nil && bp.Shed(bp.Priority(id), f.queued, f.active) {
		f.brownoutShed.Add(1)
		f.shedReq(id, "brownout")
		return
	}
	cl := f.pickCluster()
	if cl == nil {
		f.shedReq(id, "noreplica")
		return
	}
	if f.cfg.Admit != nil && !f.cfg.Admit.Admit(f.signal()) {
		f.admissionShed++
		cl.admissionShed++
		f.shedReq(id, "admit")
		return
	}
	var r *simReplica
	if f.cfg.Shards > 1 {
		// Sharded admission dispatches into stage 0 only; the stage-hop
		// events route the later stages.
		r = f.pickStage(0)
	} else {
		r = f.pickInCluster(cl)
	}
	if r == nil && f.breakersOn {
		// Breakers filtered every candidate the policy offered; any
		// routable replica with room beats shedding.
		r = f.roomIn(f.replicas, nil, nil)
	}
	if r == nil {
		f.shedReq(id, "noreplica")
		return
	}
	if r.queue.n >= f.cfg.QueueDepth {
		if r = f.fallback(r); r == nil {
			f.shedReq(id, "full")
			return
		}
	}
	st := f.newState(id, arrival, budget)
	if st != nil {
		st.primary = r
		st.attempts = 1
		st.live = 1
	}
	f.route(r)
	f.enqueue(r, simReq{id: id, arrival: arrival, budget: budget, enqueued: arrival, st: st})
	f.armHedge(st)
}

// shedReq refuses one arrival. The "noreplica" reason is an outage signal
// (no healthy routable replica) and counts as Unroutable; everything else
// is overload backpressure and counts as Shed — chaos experiments need the
// two apart to tell blast radius from load shedding.
func (f *Fleet) shedReq(id int, reason string) {
	now := f.eng.Now()
	if reason == "noreplica" {
		f.unroutable.Add(1)
		f.window(now).Unroutable++
	} else {
		f.shed.Add(1)
		f.window(now).Shed++
	}
	if f.logging {
		f.logf("H t=%.3f id=%d reason=%s\n", now, id, reason)
	}
}

// enqueue places the request on r's admission queue and starts service if
// the replica is idle.
func (f *Fleet) enqueue(r *simReplica, rq simReq) {
	r.queue.push(rq)
	f.rescore(r)
	f.queued++
	if q := r.cl.queued.Add(1); q > r.cl.peakQueued {
		r.cl.peakQueued = q
	}
	if f.logging {
		f.logf("D t=%.3f id=%d r=%s q=%d\n", f.eng.Now(), rq.id, r.name, r.queue.n)
	}
	if r.collecting {
		// A collecting batch fills early when the queue reaches MaxBatch.
		if r.queue.n >= f.cfg.MaxBatch {
			f.eng.Cancel(r.collect)
			r.collecting = false
			f.executeBatch(r, f.cfg.MaxBatch, false)
			f.maybeService(r)
		}
		return
	}
	f.maybeService(r)
}

// pickReplica applies the two-level policy. Returns nil when no
// dispatchable replica exists.
func (f *Fleet) pickReplica() *simReplica {
	cl := f.pickCluster()
	if cl == nil {
		return nil
	}
	return f.pickInCluster(cl)
}

// pickCluster selects among clusters with dispatchable replicas. When
// every cluster has one, the cluster list is the candidate set as is. A
// single candidate short-circuits in choose without consuming policy
// state, so flat fleets spend the sampler stream on replica picks only.
func (f *Fleet) pickCluster() *simCluster {
	cands := f.clusters
	if f.liveClusters < len(cands) {
		cands = f.clusterBuf[:0]
		for _, cl := range f.clusters {
			if cl.dispatchable > 0 {
				cands = append(cands, cl)
			}
		}
		f.clusterBuf = cands[:0] // retain grown storage
		if len(cands) == 0 {
			return nil
		}
	}
	return cands[f.choose(f.cfg.ClusterPolicy, &f.clusterRR, nil, cands)]
}

// pickInCluster applies the replica policy inside cl: the tree root for
// JSQ/LO, else round robin / power-of-two index over the dispatchable set
// in construction order.
func (f *Fleet) pickInCluster(cl *simCluster) *simReplica {
	if cl.tree != nil {
		if r := f.root(cl.tree); r != nil {
			return r
		}
	}
	// Fast path: every replica dispatchable — index arithmetic only.
	// Breakers force the filtered path: an open breaker must drop its
	// replica from the candidate set even when all are dispatchable.
	if !f.breakersOn && cl.dispatchable == len(cl.replicas) {
		return f.pickAmong(&cl.rrNext, cl.replicas)
	}
	now := f.eng.Now()
	cands := f.replicaBuf[:0]
	for _, r := range cl.replicas {
		if r.dispatchable() && (!f.breakersOn || r.canRoute(now)) {
			cands = append(cands, r)
		}
	}
	f.replicaBuf = cands[:0]
	if len(cands) == 0 {
		return nil
	}
	return f.pickAmong(&cl.rrNext, cands)
}

// stageReplicas returns the replicas serving pipeline stage s.
func (f *Fleet) stageReplicas(s int) []*simReplica {
	return f.replicas[f.stageLo[s]:f.stageLo[s+1]]
}

// pickStage applies the replica policy over stage s's dispatchable replicas,
// with a per-stage round-robin cursor.
func (f *Fleet) pickStage(s int) *simReplica {
	if x := f.pick; x != nil {
		if r := f.root(x.trees[s]); r != nil {
			return r
		}
	}
	// Sharded fleets route flat (one cluster): when every replica is
	// dispatchable the stage slice is the candidate set as is.
	if cl := f.clusters[0]; cl.dispatchable == len(cl.replicas) {
		return f.pickAmong(&f.stageRR[s], f.stageReplicas(s))
	}
	cands := f.replicaBuf[:0]
	for _, r := range f.stageReplicas(s) {
		if r.dispatchable() {
			cands = append(cands, r)
		}
	}
	f.replicaBuf = cands[:0]
	if len(cands) == 0 {
		return nil
	}
	return f.pickAmong(&f.stageRR[s], cands)
}

// onStageHop lands one request at stage s after its priced transfer from
// stage s−1 (the event fires at the hop-arrival instant, which becomes the
// queue-join time; arrival stays the original admission time so budgets and
// latency span the whole chain). A dead end — no dispatchable stage replica
// with queue space — fails the request: it was admitted long ago, so this is
// a delivery failure, not backpressure shedding.
func (f *Fleet) onStageHop(id int, attempts int32, s int, arrival float64) {
	r := f.repick(s)
	if r == nil {
		f.failed.Add(1)
		f.window(f.eng.Now()).Failed++
		if f.logging {
			f.logf("N t=%.3f id=%d s=%d reason=nostage\n", f.eng.Now(), id, s)
		}
		return
	}
	f.enqueue(r, simReq{id: id, arrival: arrival, budget: f.budgetNS, enqueued: f.eng.Now(), attempts: attempts})
}

// repick places a copy re-entering dispatch after it left a queue (stage
// hop, bounce, retry): the stage's policy pick (two-level when unsharded),
// the queue-full fallback, then any breaker-admitting replica. nil means no
// route.
func (f *Fleet) repick(stage int) *simReplica {
	var r *simReplica
	if f.cfg.Shards > 1 {
		r = f.pickStage(stage)
	} else {
		r = f.pickReplica()
	}
	if r != nil && r.queue.n >= f.cfg.QueueDepth {
		r = f.fallback(r)
	}
	if r == nil && f.breakersOn {
		r = f.roomIn(f.replicas, nil, nil)
	}
	return r
}

// bounce re-dispatches a plain request drained off a replica that stopped
// taking traffic, counting one retry. A dead end fails it.
func (f *Fleet) bounce(rq simReq, from *simReplica) {
	rq.attempts++
	f.retried.Add(1)
	now := f.eng.Now()
	if f.logging {
		f.logf("B t=%.3f id=%d r=%s attempt=%d\n", now, rq.id, from.name, rq.attempts)
	}
	r := f.repick(from.stage)
	if r == nil {
		f.failed.Add(1)
		f.window(now).Failed++
		if f.logging {
			f.logf("X t=%.3f id=%d r=%s reason=noreplica\n", now, rq.id, from.name)
		}
		return
	}
	rq.enqueued = now
	f.route(r)
	f.enqueue(r, rq)
}

// pickAmong applies the replica policy over cands.
func (f *Fleet) pickAmong(rr *uint64, cands []*simReplica) *simReplica {
	return cands[f.choose(f.cfg.Policy, rr, cands, nil)]
}

// choose applies policy to one level's candidates — replicas or clusters,
// exactly one slice non-empty — and returns the winner's index. A single
// candidate short-circuits without consuming policy state. The scans branch
// on the level once, outside the per-candidate loop, which stays a plain
// inlined score and compare.
func (f *Fleet) choose(policy Policy, rr *uint64, reps []*simReplica, cls []*simCluster) int {
	n := len(reps) + len(cls)
	if n == 1 {
		return 0
	}
	best, bestScore := 0, math.Inf(1)
	switch policy {
	case LeastOutstanding:
		for i, r := range reps {
			if s := r.loadScore(); s < bestScore {
				best, bestScore = i, s
			}
		}
		for i, c := range cls {
			if s := c.loadScore(); s < bestScore {
				best, bestScore = i, s
			}
		}
	case JoinShortestQueue:
		for i, r := range reps {
			if s := r.queueScore(); s < bestScore {
				best, bestScore = i, s
			}
		}
		for i, c := range cls {
			if s := c.queueScore(); s < bestScore {
				best, bestScore = i, s
			}
		}
	case PowerOfTwo:
		i := f.rng.Intn(n)
		j := f.rng.Intn(n - 1)
		if j >= i {
			j++
		}
		if queueScoreAt(reps, cls, j) < queueScoreAt(reps, cls, i) {
			return j
		}
		return i
	default: // RoundRobin
		*rr++
		return int(*rr % uint64(n))
	}
	return best
}

func queueScoreAt(reps []*simReplica, cls []*simCluster, i int) float64 {
	if reps != nil {
		return reps[i].queueScore()
	}
	return cls[i].queueScore()
}

// fallback scans for any dispatchable replica with queue space after the
// picked one was full: first the rest of its cluster, then the whole fleet
// in construction order (the backpressure scan). A sharded fleet never
// leaves the stage instead: a request cannot skip ahead in the pipeline.
func (f *Fleet) fallback(full *simReplica) *simReplica {
	if f.cfg.Shards > 1 {
		return f.roomIn(f.stageReplicas(full.stage), full, nil)
	}
	if r := f.roomIn(full.cl.replicas, full, nil); r != nil {
		return r
	}
	return f.roomIn(f.replicas, full, full.cl)
}

// roomIn returns the first replica of rs — skipping skip and the members of
// skipCl — that takes traffic, admits it through its breaker, and has queue
// space.
func (f *Fleet) roomIn(rs []*simReplica, skip *simReplica, skipCl *simCluster) *simReplica {
	now := f.eng.Now()
	for _, r := range rs {
		if r != skip && r.cl != skipCl && r.dispatchable() && (!f.breakersOn || r.canRoute(now)) && r.queue.n < f.cfg.QueueDepth {
			return r
		}
	}
	return nil
}

// logf appends one deterministic event-log line when logging is enabled.
// Lane sub-fleets record each line with the current event's virtual time
// for the merge instead of writing directly.
func (f *Fleet) logf(format string, args ...any) {
	if f.laneSink != nil {
		f.laneSink.add(f.eng.Now(), format, args...)
		return
	}
	if f.log == nil {
		return
	}
	fmt.Fprintf(f.log, format, args...)
}
