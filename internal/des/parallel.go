package des

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"autohet/internal/des/trace"
)

// Parallel lane execution (Config.Workers > 1). Lanes run only when the
// cluster groups cannot affect each other for the whole run
// (parallelEligible): round-robin cluster routing, no chaos schedule, no
// autoscaler, no repair loop, no admission hook and no resilience stack.
// Then the set of clusters with a dispatchable replica never changes, so the
// cluster picked for each arrival depends only on the round-robin cursor.
// The coordinator routes the whole trace up front with the parent fleet's
// own pickCluster, and the fleet shards into W lanes of contiguous clusters,
// each run to completion by its own engine on its own goroutine with no
// synchronization in between. A lane chains its share of the arrivals the
// way fireArrival chains the serial trace: firing one schedules the next.
//
// The one cross-lane interaction a lane can still develop is whole-cluster
// backpressure: the serial fleet would scan the other clusters for room.
// The lane aborts, and the whole workload reruns serially from a recorded
// copy of the trace — exactness is never traded for speed.
//
// Logging: each lane records its lines with their virtual times, and the
// merged log orders them by (time, lane). Two lanes logging at one exact
// instant cannot be ordered without the serial sequence numbers; that
// measure-zero case reruns serially too.

// laneArrival is one precomputed arrival routed to a lane: the request id,
// its arrival time from the shared trace, and the lane-local cluster index
// the coordinator's round-robin pick selected.
type laneArrival struct {
	id int
	at float64
	cl int32
}

// laneEntry is one log line: its virtual time and its byte range in the
// lane's buffer.
type laneEntry struct {
	at         float64
	start, end int32
}

// laneLog accumulates one lane's log lines for the merge.
type laneLog struct {
	buf     []byte
	entries []laneEntry
}

func (l *laneLog) add(at float64, format string, args ...any) {
	start := int32(len(l.buf))
	l.buf = fmt.Appendf(l.buf, format, args...)
	l.entries = append(l.entries, laneEntry{at: at, start: start, end: int32(len(l.buf))})
}

// fireLaneArrival handles one evLaneArrival event on a lane sub-fleet: the
// serial arrive() minus the coordinator-owned cluster pick, then the lane's
// next arrival, chained like fireArrival.
func (f *Fleet) fireLaneArrival(i int) {
	a := f.laneArrivals[i]
	f.submitted.Add(1)
	f.window(a.at).Arrived++
	if f.logging {
		f.logf("A t=%.3f id=%d\n", a.at, a.id)
	}
	// The coordinator picked a live cluster, and liveness never changes in
	// a lane run, so the policy pick always finds a replica.
	r := f.pickInCluster(f.clusters[a.cl])
	if r.queue.n >= f.cfg.QueueDepth {
		r = f.roomIn(r.cl.replicas, r, nil)
	}
	if r == nil {
		// Whole cluster full: the serial fleet would scan other clusters —
		// a cross-lane interaction. Abort.
		f.laneAbort = true
		f.eng.Halt()
		return
	}
	f.enqueue(r, simReq{id: a.id, arrival: a.at, budget: f.budgetNS, enqueued: a.at})
	if i++; i < len(f.laneArrivals) {
		f.eng.AtEvent(f.laneArrivals[i].at, evLaneArrival, int64(i), 0, nil)
	}
}

// parallelEligible reports whether the cluster groups cannot affect each
// other for the whole run. PowerOfTwo consumes a fleet-global random stream
// per pick; JSQ/least-outstanding cluster routing reads live queue state
// across lanes; admission and the resilience stack (brownout, hedges
// re-picking clusters, breakers, retries) couple lanes per arrival; chaos
// events, the autoscaler and the repair loop's sweeps change which clusters
// take traffic mid-run; a fleet with no live cluster has nothing to route.
func (f *Fleet) parallelEligible() bool {
	if f.cfg.Workers <= 1 ||
		f.cfg.Shards > 1 ||
		f.cfg.Clusters < 2 ||
		f.cfg.ClusterPolicy != RoundRobin ||
		f.cfg.Policy == PowerOfTwo ||
		f.cfg.Admit != nil ||
		f.cfg.MaxRetries > 0 ||
		f.cfg.Resilience.Enabled() ||
		f.cfg.Chaos != nil ||
		f.cfg.Scaler != nil ||
		f.liveClusters == 0 {
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
	f   *Fleet
	cLo int       // global index of the lane's first cluster
	rLo int       // global index of the lane's first replica
	end time.Time // when the lane's event loop finished
}

// runParallel is the coordinator. It either completes the sharded run and
// returns the exact serial Result, or aborts and reruns the recorded trace
// serially — the return is always exact.
func (f *Fleet) runParallel(gen trace.Generator, requests int, budgetNS float64, wallStart time.Time) *Result {
	cfg := f.cfg
	W := min(cfg.Workers, cfg.Clusters)
	n := len(f.replicas)

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
		laneCfg.Log = nil
		laneCfg.lane = true
		laneCfg.laneBounds = bounds
		lf, err := NewFleet(laneCfg, laneSpecs...)
		if err != nil {
			return f.runSerial(gen, requests, budgetNS, wallStart)
		}
		lf.ran = true
		lf.budgetNS = budgetNS
		share := requests*(cHi-cLo)/cfg.Clusters + 1
		lf.laneArrivals = make([]laneArrival, 0, share)
		lf.latencies = make([]float64, 0, share)
		if f.log != nil {
			lf.laneSink = &laneLog{}
			lf.logging = true
		}
		lanes[l] = &lane{f: lf, cLo: cLo, rLo: rLo}
	}

	// Record the trace and route it with the parent's own cluster pick,
	// exactly as a serial run picks. The gaps let an abort replay the
	// identical trace; absolute times accumulate gap by gap — the serial
	// float sum.
	gaps := make([]float64, requests)
	arrival := 0.0
	for i := range gaps {
		gaps[i] = gen.NextGapNS()
		arrival += gaps[i]
		cl := f.pickCluster()
		ln := lanes[laneOf[cl.id]]
		ln.f.laneArrivals = append(ln.f.laneArrivals, laneArrival{id: i, at: arrival, cl: int32(cl.id - ln.cLo)})
	}
	serial := func() *Result {
		f.clusterRR = 0
		return f.runSerial(&replayGen{gaps: gaps}, requests, budgetNS, wallStart)
	}

	// Run every lane to completion concurrently. Each lane notes when its
	// event loop ended, then sorts its own latencies while the others may
	// still run.
	var wg sync.WaitGroup
	for _, ln := range lanes {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			lf := ln.f
			if len(lf.laneArrivals) > 0 {
				lf.eng.AtEvent(lf.laneArrivals[0].at, evLaneArrival, 0, 0, nil)
			}
			lf.eng.Run()
			ln.end = time.Now()
			sort.Float64s(lf.latencies)
		}(ln)
	}
	wg.Wait()
	for _, ln := range lanes {
		if ln.f.laneAbort {
			return serial()
		}
	}
	if f.log != nil {
		merged, ok := mergeLaneLogs(lanes)
		if !ok {
			return serial()
		}
		// Write errors are ignored, as the serial logf's are.
		_, _ = f.log.Write(merged)
	}

	// Fold lane state back into the parent fleet and compile the Result
	// with the serial arithmetic (identical iteration orders throughout).
	var events int64
	endNow := 0.0
	runs := make([][]float64, len(lanes))
	loopEnd := wallStart
	for l, ln := range lanes {
		lf := ln.f
		for j, lr := range lf.replicas {
			pr := f.replicas[ln.rLo+j]
			pr.served = lr.served
			pr.expired = lr.expired
			pr.batches = lr.batches
			pr.batchSum = lr.batchSum
			pr.busyNS = lr.busyNS
		}
		for j, lcl := range lf.clusters {
			pcl := f.clusters[ln.cLo+j]
			pcl.served = lcl.served
			pcl.peakQueued = lcl.peakQueued
		}
		events += lf.eng.Events()
		endNow = max(endNow, lf.eng.Now())
		runs[l] = lf.latencies
		if ln.end.After(loopEnd) {
			loopEnd = ln.end
		}
		f.makespan = max(f.makespan, lf.makespan)
		f.submitted.Add(lf.submitted.Load())
		// A lane never sheds or fails a request (it aborts instead), so
		// completions and budget expiries are its only outcomes.
		f.completed.Add(lf.completed.Load())
		f.expired.Add(lf.expired.Load())
		for i := range lf.windows {
			f.windowAt(i).add(&lf.windows[i])
		}
	}
	f.lastArrival = arrival
	f.eng.now = endNow
	f.latencies = mergeSorted(runs)

	res := f.compileResult(requests, events, loopEnd.Sub(wallStart))
	res.Lanes = W
	return res
}

// mergeSorted merges ascending, NaN-free runs into one new slice of
// exactly their total length: the lanes' sorted latencies become the
// sorted latencies of the whole run, equal to sorting their concatenation.
func mergeSorted(runs [][]float64) []float64 {
	n := 0
	live := make([][]float64, 0, len(runs))
	for _, r := range runs {
		n += len(r)
		if len(r) > 0 {
			live = append(live, r)
		}
	}
	out := make([]float64, 0, n)
	for len(live) > 1 {
		m := 0
		for j := 1; j < len(live); j++ {
			if live[j][0] < live[m][0] {
				m = j
			}
		}
		out = append(out, live[m][0])
		if live[m] = live[m][1:]; len(live[m]) == 0 {
			live = append(live[:m], live[m+1:]...)
		}
	}
	for _, r := range live {
		out = append(out, r...)
	}
	return out
}

// mergeLaneLogs orders every lane's lines by (time, lane) and concatenates
// the bytes; each lane's own lines are already in time order. ok is false
// when two lanes logged at the same virtual time — the unorderable tie.
func mergeLaneLogs(lanes []*lane) (merged []byte, ok bool) {
	type ref struct {
		e    laneEntry
		lane int
	}
	var refs []ref
	size := 0
	for l, ln := range lanes {
		for _, e := range ln.f.laneSink.entries {
			refs = append(refs, ref{e, l})
		}
		size += len(ln.f.laneSink.buf)
	}
	sort.SliceStable(refs, func(a, b int) bool {
		if refs[a].e.at != refs[b].e.at {
			return refs[a].e.at < refs[b].e.at
		}
		return refs[a].lane < refs[b].lane
	})
	merged = make([]byte, 0, size)
	for k, r := range refs {
		if k > 0 && refs[k-1].e.at == r.e.at && refs[k-1].lane != r.lane {
			return nil, false
		}
		merged = append(merged, lanes[r.lane].f.laneSink.buf[r.e.start:r.e.end]...)
	}
	return merged, true
}
