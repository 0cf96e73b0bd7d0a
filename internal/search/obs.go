package search

import (
	"fmt"
	"time"

	"autohet/internal/obs"
)

// Search instrumentation on the shared obs registry. The evaluation engine
// is the search hot path (a cached eval is sub-microsecond), so it is never
// asked to touch extra counters: its existing atomics are published through
// CounterFuncs, which cost nothing until a scrape or snapshot reads them.
// Per-searcher totals and the sim/agent time split are recorded once per
// finished search from the result's deltas; AutoHet's stage counters add
// each stage's time as it ends.

const (
	evalHelp   = "Strategy evaluations requested from the shared evaluation engine."
	cacheHelp  = "Evaluation-engine cache lookups by cache level and outcome."
	simNSHelp  = "Cumulative time inside actual simulation in nanoseconds (cache hits bill nothing; parallel workers sum)."
	byNameHelp = "Strategy evaluations per searcher (deltas recorded as each search finishes)."
	phaseHelp  = "Search wall time split between simulator feedback and agent work, in nanoseconds."
	stageHelp  = "AutoHet stage time in nanoseconds: per-round decide/simulate/learn, and the whole search loop."
)

// AutoHet's stage counters, timed with Counter.AddSince as each stage ends.
var (
	stageSearch   = obs.Default.Counter(`autohet_search_stage_ns_total{stage="search"}`, stageHelp)
	stageDecide   = obs.Default.Counter(`autohet_search_stage_ns_total{stage="decide"}`, stageHelp)
	stageSimulate = obs.Default.Counter(`autohet_search_stage_ns_total{stage="simulate"}`, stageHelp)
	stageLearn    = obs.Default.Counter(`autohet_search_stage_ns_total{stage="learn"}`, stageHelp)
)

// publish exposes the evaluator's counters on obs.Default. Re-publishing
// from a newer evaluator rebinds the series (latest env wins), matching the
// fleet convention.
func (v *Evaluator) publish() {
	reg := obs.Default
	reg.CounterFunc("autohet_search_evals_total", evalHelp, v.evals.Load)
	reg.CounterFunc(`autohet_search_cache_events_total{cache="strategy",event="hit"}`, cacheHelp, v.hits.Load)
	reg.CounterFunc(`autohet_search_cache_events_total{cache="layer",event="hit"}`, cacheHelp, v.layerHits.Load)
	reg.CounterFunc(`autohet_search_cache_events_total{cache="layer",event="miss"}`, cacheHelp, v.layerMisses.Load)
	reg.CounterFunc("autohet_search_sim_ns_total", simNSHelp, v.simNS.Load)
}

// trackSearch snapshots the evaluator's counters and returns a function
// that records the deltas against the named searcher — deferred at each
// searcher's entry so even failed searches bill the work they did.
func trackSearch(searcher string, v *Evaluator) func() {
	startStats, startT := v.Stats(), time.Now()
	return func() { recordSearch(searcher, v.Stats().Sub(startStats), time.Since(startT)) }
}

// recordSearch adds one finished search's evaluation count and sim/agent
// time split to the registry. Agent time is everything not spent waiting on
// the simulator, clamped at zero because parallel evaluation phases can sum
// more worker-seconds of sim time than wall time.
func recordSearch(searcher string, stats EvalStats, total time.Duration) {
	reg := obs.Default
	reg.Counter(fmt.Sprintf("autohet_search_searcher_evals_total{searcher=%q}", searcher), byNameHelp).
		Add(stats.Evals)
	reg.Counter(fmt.Sprintf("autohet_search_time_ns_total{searcher=%q,phase=%q}", searcher, "sim"), phaseHelp).
		Add(int64(stats.SimTime))
	if agentNS := int64(total - stats.SimTime); agentNS > 0 {
		reg.Counter(fmt.Sprintf("autohet_search_time_ns_total{searcher=%q,phase=%q}", searcher, "agent"), phaseHelp).
			Add(agentNS)
	}
}
