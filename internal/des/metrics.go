package des

import (
	"sync/atomic"

	"autohet/internal/chaos"
	"autohet/internal/obs"
)

// Observability. The simulation loop is single-goroutine and allocation-
// sensitive, so nothing on the event path records into the registry
// directly: the events counter and the speedup gauge are published once
// per run, outcome counters publish the fleet's existing atomics through
// CounterFunc (zero cost until a scrape), and queue depths read the
// per-cluster atomic through GaugeFunc. Rebinding semantics (CounterFunc
// and GaugeFunc replace callbacks on re-registration) mean each new Fleet
// re-claims its series.

// eventsTotal counts the events of every finished run, serial, lane or
// paced, across all fleets of the process.
var eventsTotal = obs.Default.Counter("autohet_des_events_total",
	"Simulation events fired by the DES engine.")

func (f *Fleet) registerMetrics() {
	reg := obs.Default
	for _, oc := range []struct {
		outcome string
		c       *atomic.Int64
	}{
		{"submitted", &f.submitted},
		{"completed", &f.completed},
		{"shed", &f.shed},
		{"unroutable", &f.unroutable},
		{"expired", &f.expired},
		{"retried", &f.retried},
		{"failed", &f.failed},
	} {
		reg.CounterFunc(`autohet_fleet_requests_total{outcome="`+oc.outcome+`"}`, "Fleet request outcomes by disposition.", oc.c.Load)
	}
	reg.CounterFunc(`autohet_chaos_events_total{engine="des"}`,
		"Chaos fault events applied to the DES fleet.",
		f.chaosEvents.Load)
	for _, a := range []struct {
		action string
		c      *atomic.Int64
	}{
		{"retry", &f.retried},
		{"hedge", &f.hedged},
		{"hedge_wasted", &f.hedgeWasted},
		{"brownout_shed", &f.brownoutShed},
	} {
		reg.CounterFunc(`autohet_chaos_actions_total{action="`+a.action+`"}`, "Resilience actions taken by the DES fleet.", a.c.Load)
	}
	if f.breakersOn {
		reg.GaugeFunc("autohet_chaos_breakers_open",
			"DES replicas whose circuit breaker is currently open.",
			func() float64 {
				open := 0.0
				for _, r := range f.replicas {
					if r.breaker != nil && r.breaker.State() == chaos.BreakerOpen {
						open++
					}
				}
				return open
			})
	}
	f.speedupGauge = reg.Gauge("autohet_des_speedup",
		"Virtual seconds simulated per wall second in the last DES run.")
	for _, cl := range f.clusters {
		cl := cl
		reg.GaugeFunc(`autohet_des_cluster_queue_depth{cluster="`+cl.name+`"}`,
			"Queued requests per DES cluster.",
			func() float64 { return float64(cl.queued.Load()) })
	}
}
