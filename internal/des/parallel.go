package des

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autohet/internal/chaos"
	"autohet/internal/des/trace"
)

// Parallel lane execution (Config.Workers > 1). Clusters are nearly
// independent between routing decisions, so the fleet shards into W lanes
// of contiguous clusters, each advanced by its own engine on its own
// goroutine. The only cross-lane couplings are (a) the cluster-routing
// decision per arrival and (b) the autoscaler control tick; both are
// handled by a coordinator that runs the serial fleet's own decision code
// on the parent fleet, whose replicas serve as the routing model while the
// lanes simulate:
//
//   - Arrival routing: with round-robin cluster policy the pick depends
//     only on which clusters have a dispatchable replica, and
//     dispatchability changes only through chaos events (known times,
//     deterministic effects) and scaler flips (applied at tick barriers).
//     The coordinator replays both in virtual-time order and assigns every
//     arrival to its lane before the lanes run — identical to the serial
//     pick, without running the simulation.
//   - Control ticks: lanes run under conservative time-window barriers at
//     the tick times. At each barrier every lane has fired all events
//     strictly before the tick, so the coordinator can sum the lanes'
//     queued/in-flight state into the exact Signal the serial controlTick
//     would observe, apply the Scaler decision to the parent's active set,
//     and push the flips into the lanes before the next window.
//
// Anything the routing model cannot predict exactly aborts the parallel
// attempt and reruns the whole workload serially from a recorded copy of
// the trace — exactness is never traded for speed. Abort triggers:
// whole-cluster backpressure (the serial fleet would scan other clusters),
// and exact virtual-time ties between a barrier and a lane event, arrival,
// or chaos event (the serial interleaving at an exact tie depends on event
// sequence numbers the lanes cannot observe).
//
// Logging: each lane records structured log entries (time, class, chaos
// index, emission order). The merged log orders entries by (time, class,
// chaos index, lane, emission order), where class 0 = chaos-origin lines,
// 1 = coordinator/control lines, 2 = normal lines — reproducing the serial
// log byte for byte (chaos setup events hold the smallest sequence numbers,
// so they fire first at an instant; remaining same-instant cross-lane
// collisions of normal events are detected at merge and rerun serially).

// Merged-log entry classes, in serial tie-break order at one instant:
// chaos events hold setup-time sequence numbers (smallest), control/
// coordinator lines come next, dynamically scheduled events last.
const (
	classChaos  uint8 = 0
	classCoord  uint8 = 1
	classNormal uint8 = 2
)

// logLine formats one log line for a structured sink.
func logLine(format string, args ...any) []byte {
	return []byte(fmt.Sprintf(format, args...))
}

// laneArrival is one precomputed arrival routed to a lane: the request id,
// its arrival time from the shared trace, and the lane-local cluster index
// the coordinator's round-robin pick selected.
type laneArrival struct {
	id int
	at float64
	cl int32
}

// laneEntry is one structured log line: the sort key plus the byte range in
// the lane's buffer.
type laneEntry struct {
	at         float64
	class      uint8
	tie        int32 // global chaos schedule index for class 0
	lane       int32
	start, end int32
}

// laneLog accumulates structured log lines for the canonical merge.
type laneLog struct {
	lane     int32
	curClass uint8
	curTie   int32
	buf      []byte
	entries  []laneEntry
}

func (l *laneLog) add(at float64, line []byte) {
	start := int32(len(l.buf))
	l.buf = append(l.buf, line...)
	l.entries = append(l.entries, laneEntry{
		at: at, class: l.curClass, tie: l.curTie, lane: l.lane,
		start: start, end: int32(len(l.buf)),
	})
}

// fireLaneArrival handles one evLaneArrival event on a lane sub-fleet: the
// serial arrive() minus the coordinator-owned steps (brownout, cluster
// pick, admission — all precomputed or ineligible in parallel mode).
func (f *Fleet) fireLaneArrival(i int) {
	a := f.laneArrivals[i]
	f.submitted.Add(1)
	f.arrivalsTick++
	f.window(a.at).Arrived++
	if f.logging {
		f.logf("A t=%.3f id=%d\n", a.at, a.id)
	}
	cl := f.clusters[a.cl]
	r := f.pickInCluster(cl)
	if r == nil {
		// Shadow model promised a dispatchable replica; a miss means a
		// modeling gap — abort and rerun serially rather than diverge.
		f.laneAbort = true
		f.eng.Halt()
		return
	}
	if r.queue.n >= f.cfg.QueueDepth {
		r = f.roomIn(r.cl.replicas, r, nil)
		if r == nil {
			// Whole cluster full: the serial fleet would scan other
			// clusters — a cross-lane interaction. Abort.
			f.laneAbort = true
			f.eng.Halt()
			return
		}
	}
	f.enqueue(r, simReq{id: a.id, arrival: a.at, budget: f.budgetNS, enqueued: a.at})
}

// parallelEligible reports whether this configuration's cross-lane
// interactions are precomputable. PowerOfTwo consumes a fleet-global random
// stream per pick; JSQ/least-outstanding cluster routing reads live queue
// state across lanes; admission and the resilience stack (brownout, hedges
// re-picking clusters, breakers, retries) couple lanes per arrival; the
// repair loop's sweeps and bounces touch every lane at once.
func (f *Fleet) parallelEligible() bool {
	if f.cfg.Workers <= 1 ||
		f.cfg.Shards > 1 ||
		f.cfg.Clusters < 2 ||
		f.cfg.ClusterPolicy != RoundRobin ||
		f.cfg.Policy == PowerOfTwo ||
		f.cfg.Admit != nil ||
		f.cfg.MaxRetries > 0 ||
		f.cfg.Resilience.Enabled() {
		return false
	}
	for _, r := range f.replicas {
		if r.ledger != nil && r.ledger.repair != nil {
			return false
		}
	}
	return true
}

// replayGen replays a recorded gap sequence, so an aborted parallel attempt
// can rerun the identical trace serially.
type replayGen struct {
	gaps []float64
	i    int
}

func (g *replayGen) Name() string { return "replay" }

func (g *replayGen) NextGapNS() float64 {
	v := g.gaps[g.i]
	g.i++
	return v
}

// lane is one worker's shard: a sub-fleet over a contiguous cluster range.
type lane struct {
	f        *Fleet
	cLo, cHi int // global cluster range [cLo, cHi)
	rLo      int // global index of the lane's first replica
}

// runBefore fires every lane event strictly before horizon T. A pending
// event exactly at a finite T is an exact barrier tie the serial ordering
// of which depends on sequence numbers — reported for abort.
func (ln *lane) runBefore(T float64) (tie bool) {
	e := ln.f.eng
	for {
		at, ok := e.PeekAt()
		if !ok || at > T {
			return false
		}
		if at == T && !math.IsInf(T, 1) {
			return true
		}
		e.Step()
		if ln.f.laneAbort {
			return false
		}
	}
}

// runParallel is the coordinator. It either completes the sharded run and
// returns the exact serial Result, or aborts and reruns the recorded trace
// serially — the return is always exact.
func (f *Fleet) runParallel(gen trace.Generator, requests int, budgetNS float64, wallStart time.Time) *Result {
	cfg := f.cfg
	W := cfg.Workers
	if W > cfg.Clusters {
		W = cfg.Clusters
	}
	n := len(f.replicas)

	// Record the whole trace first: the coordinator needs arrival times to
	// route ahead of the lanes, and an abort needs to replay the identical
	// trace. Absolute times accumulate gap by gap — the serial float sum.
	gaps := make([]float64, requests)
	times := make([]float64, requests)
	arrival := 0.0
	for i := range gaps {
		g := gen.NextGapNS()
		gaps[i] = g
		arrival += g
		times[i] = arrival
	}
	// The parent fleet itself is the coordinator's routing model: its
	// replicas take chaos events' routing effects and the scaler's flips,
	// and its own cluster pick routes each arrival, exactly as in a serial
	// run. The lanes own everything else. An abort restores the parent's
	// build-time state before rerunning serially.
	type saved struct {
		active bool
		replicaHealth
	}
	build := make([]saved, n)
	for i, r := range f.replicas {
		build[i] = saved{r.active, r.replicaHealth}
	}
	serial := func() *Result {
		for i, r := range f.replicas {
			r.active, r.replicaHealth = build[i].active, build[i].replicaHealth
		}
		f.clusterRR, f.scaleActions = 0, 0
		f.refreshDispatch()
		return f.runSerial(&replayGen{gaps: gaps}, requests, budgetNS, wallStart)
	}
	route := func(ev chaos.Event) {
		if r := f.replicaByName(ev.Target); r != nil && r.apply(ev, r.name, f.cfg.Seed, f.cfg.DegradeThreshold) &&
			ev.Kind != chaos.Slow && ev.Kind != chaos.Link {
			f.refreshDispatch()
		}
	}

	// Build lanes: contiguous cluster ranges, cluster boundaries copied
	// from the parent split, replica names pre-resolved so lane-local logs
	// match the serial log bytes.
	clusterBound := make([]int, cfg.Clusters+1)
	for ci := 0; ci <= cfg.Clusters; ci++ {
		clusterBound[ci] = ci * n / cfg.Clusters
	}
	laneOf := make([]int, cfg.Clusters) // global cluster -> lane
	lanes := make([]*lane, W)
	for l := 0; l < W; l++ {
		cLo := l * cfg.Clusters / W
		cHi := (l + 1) * cfg.Clusters / W
		rLo, rHi := clusterBound[cLo], clusterBound[cHi]
		for ci := cLo; ci < cHi; ci++ {
			laneOf[ci] = l
		}
		laneSpecs := make([]ReplicaSpec, rHi-rLo)
		for i := range laneSpecs {
			laneSpecs[i] = f.specs[rLo+i]
			laneSpecs[i].Name = f.replicas[rLo+i].name
		}
		bounds := make([]int, cHi-cLo+1)
		for ci := cLo; ci <= cHi; ci++ {
			bounds[ci-cLo] = clusterBound[ci] - rLo
		}
		laneCfg := cfg
		laneCfg.Workers = 1
		laneCfg.Clusters = cHi - cLo
		laneCfg.Scaler = nil
		laneCfg.Chaos = nil
		laneCfg.Log = nil
		laneCfg.lane = true
		laneCfg.laneBounds = bounds
		lf, err := NewFleet(laneCfg, laneSpecs...)
		if err != nil {
			return serial()
		}
		lf.ran = true
		lf.budgetNS = budgetNS
		lf.latencies = make([]float64, 0, requests/W+1)
		if f.log != nil {
			lf.laneSink = &laneLog{lane: int32(l), curClass: classNormal}
			lf.logging = true
		}
		lanes[l] = &lane{f: lf, cLo: cLo, cHi: cHi, rLo: rLo}
	}

	// Partition the chaos schedule by target lane (unknown targets fire in
	// lane 0, where they log and fall through exactly as in serial), keeping
	// global schedule indices for the merged-log sort key, and schedule each
	// lane's events up front — chaos setup precedes arrivals in the serial
	// sequence order, and lane engines preserve that.
	var chaosEvents []chaos.Event
	if cfg.Chaos != nil {
		chaosEvents = cfg.Chaos.Events
	}
	for gi := range chaosEvents {
		ev := chaosEvents[gi]
		l := 0
		if r := f.replicaByName(ev.Target); r != nil {
			l = laneOf[r.cl.id]
		}
		lf := lanes[l].f
		li := len(lf.laneChaosIdx)
		lf.sched = append(lf.sched, ev)
		lf.laneChaosIdx = append(lf.laneChaosIdx, gi)
		lf.eng.AtEvent(ev.AtNS, evChaos, int64(li), 0, nil)
	}

	var coordLog *laneLog
	if f.log != nil {
		coordLog = &laneLog{lane: -1, curClass: classCoord}
	}
	period := cfg.ControlPeriodNS
	nextTick := math.Inf(1)
	if cfg.Scaler != nil {
		nextTick = period
	}
	var (
		arrIdx, chaosIdx        int
		ticks                   int64
		lastTickAt              float64
		arrivalsTick            int64
		traceDone               bool
		coordShed, coordArrived int64
	)

	for {
		T := nextTick
		// Route every arrival strictly before the barrier, replaying chaos
		// effects on dispatchability in time order (equal-time chaos fires
		// first: its setup sequence numbers precede every arrival's).
		for arrIdx < requests && times[arrIdx] < T {
			t := times[arrIdx]
			for chaosIdx < len(chaosEvents) && chaosEvents[chaosIdx].AtNS <= t {
				route(chaosEvents[chaosIdx])
				chaosIdx++
			}
			arrivalsTick++
			cl := f.pickCluster()
			if cl == nil {
				coordArrived++
				coordShed++
				cw := f.window(t)
				cw.Arrived++
				cw.Unroutable++
				if coordLog != nil {
					coordLog.curClass = classNormal
					coordLog.add(t, logLine("A t=%.3f id=%d\n", t, arrIdx))
					coordLog.add(t, logLine("H t=%.3f id=%d reason=noreplica\n", t, arrIdx))
					coordLog.curClass = classCoord
				}
			} else {
				ln := lanes[laneOf[cl.id]]
				ln.f.laneArrivals = append(ln.f.laneArrivals,
					laneArrival{id: arrIdx, at: t, cl: int32(cl.id - ln.cLo)})
			}
			arrIdx++
		}
		traceDone = arrIdx == requests
		// Remaining pre-barrier chaos only matters to future routing.
		for chaosIdx < len(chaosEvents) && chaosEvents[chaosIdx].AtNS < T {
			route(chaosEvents[chaosIdx])
			chaosIdx++
		}
		// Exact barrier ties: the serial interleaving depends on sequence
		// numbers the coordinator cannot see. Rerun serially.
		if chaosIdx < len(chaosEvents) && chaosEvents[chaosIdx].AtNS == T {
			return serial()
		}
		if arrIdx < requests && times[arrIdx] == T {
			return serial()
		}

		// Run every lane to the barrier concurrently.
		var wg sync.WaitGroup
		var abort atomic.Bool
		for _, ln := range lanes {
			wg.Add(1)
			go func(ln *lane) {
				defer wg.Done()
				lf := ln.f
				for ; lf.laneSched < len(lf.laneArrivals); lf.laneSched++ {
					a := lf.laneArrivals[lf.laneSched]
					lf.eng.AtEvent(a.at, evLaneArrival, int64(lf.laneSched), 0, nil)
				}
				if ln.runBefore(T) || lf.laneAbort {
					abort.Store(true)
				}
			}(ln)
		}
		wg.Wait()
		if abort.Load() {
			return serial()
		}
		if math.IsInf(T, 1) {
			break // final window: every lane drained
		}

		// Control tick at the barrier: the exact serial controlTick against
		// summed lane state.
		ticks++
		lastTickAt = T
		rate := float64(arrivalsTick) / period * 1e9
		arrivalsTick = 0
		queued, inFlight := 0, 0
		for _, ln := range lanes {
			queued += ln.f.queued
			inFlight += ln.f.inFlight
		}
		if f.scale(Signal{
			NowNS: T, Active: f.active, Total: n,
			Queued: queued, InFlight: inFlight,
			ArrivalRate: rate, CapacityRPS: f.capacityRPS,
		}) {
			for _, ln := range lanes {
				changed := false
				for g := ln.rLo; g < clusterBound[ln.cHi]; g++ {
					lr := ln.f.replicas[g-ln.rLo]
					if lr.active != f.replicas[g].active {
						lr.active = f.replicas[g].active
						changed = true
					}
				}
				if changed {
					ln.f.refreshDispatch()
				}
			}
			if coordLog != nil {
				coordLog.add(T, logLine("C t=%.3f active=%d rate=%.0f\n", T, f.active, rate))
			}
		}
		if !traceDone || queued+inFlight > 0 {
			nextTick = T + period
		} else {
			nextTick = math.Inf(1)
		}
	}

	// Merge the canonical log (cross-lane normal-class ties at one instant
	// cannot be ordered without serial sequence numbers — rerun serially;
	// continuous event times make this a measure-zero path).
	if f.log != nil {
		logs := make([]*laneLog, 0, W+1)
		for _, ln := range lanes {
			logs = append(logs, ln.f.laneSink)
		}
		if coordLog != nil {
			logs = append(logs, coordLog)
		}
		merged, ok := mergeLaneLogs(logs)
		if !ok {
			return serial()
		}
		// Write errors are ignored, as the serial logf's are.
		_, _ = f.log.Write(merged)
	}

	// Fold lane state back into the parent fleet and compile the Result
	// with the serial arithmetic (identical iteration orders throughout).
	for _, ln := range lanes {
		for j, lr := range ln.f.replicas {
			pr := f.replicas[ln.rLo+j]
			pr.active = lr.active
			pr.replicaHealth = lr.replicaHealth
			pr.served = lr.served
			pr.expired = lr.expired
			pr.batches = lr.batches
			pr.batchSum = lr.batchSum
			pr.busyNS = lr.busyNS
		}
		for j, lcl := range ln.f.clusters {
			pcl := f.clusters[ln.cLo+j]
			pcl.served = lcl.served
			pcl.peakQueued = lcl.peakQueued
			pcl.queued.Store(lcl.queued.Load())
		}
	}
	var events int64 = ticks + coordShed
	endNow := lastTickAt
	total := int(coordArrived)
	for _, ln := range lanes {
		lf := ln.f
		events += lf.eng.Events()
		if now := lf.eng.Now(); now > endNow {
			endNow = now
		}
		total += int(lf.submitted.Load())
		f.latencies = append(f.latencies, lf.latencies...)
		if lf.makespan > f.makespan {
			f.makespan = lf.makespan
		}
		f.completed.Add(lf.completed.Load())
		f.shed.Add(lf.shed.Load())
		f.unroutable.Add(lf.unroutable.Load())
		f.expired.Add(lf.expired.Load())
		f.failed.Add(lf.failed.Load())
		f.chaosEvents.Add(lf.chaosEvents.Load())
		for i := range lf.windows {
			f.windowAt(i).add(&lf.windows[i])
		}
	}
	f.submitted.Store(int64(total))
	f.unroutable.Add(coordShed)
	f.lastArrival = times[requests-1]
	f.eng.setNow(endNow)

	res := f.compileResult(requests, events, time.Since(wallStart))
	res.Lanes = W
	return res
}

// mergeLaneLogs sorts every structured entry into canonical serial order
// and concatenates the bytes. ok is false when two normal-class entries
// from different sources share an exact virtual time — the unorderable tie.
func mergeLaneLogs(logs []*laneLog) (merged []byte, ok bool) {
	type ref struct {
		log *laneLog
		i   int
	}
	var refs []ref
	size := 0
	for _, l := range logs {
		for i := range l.entries {
			refs = append(refs, ref{l, i})
		}
		size += len(l.buf)
	}
	sort.SliceStable(refs, func(a, b int) bool {
		ea, eb := &refs[a].log.entries[refs[a].i], &refs[b].log.entries[refs[b].i]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		if ea.class != eb.class {
			return ea.class < eb.class
		}
		if ea.tie != eb.tie {
			return ea.tie < eb.tie
		}
		return ea.lane < eb.lane
	})
	merged = make([]byte, 0, size)
	for k, r := range refs {
		e := &r.log.entries[r.i]
		if k > 0 {
			p := &refs[k-1].log.entries[refs[k-1].i]
			if p.at == e.at && p.class == classNormal && e.class == classNormal && p.lane != e.lane {
				return nil, false
			}
		}
		merged = append(merged, r.log.buf[e.start:e.end]...)
	}
	return merged, true
}
