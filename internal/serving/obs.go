package serving

import "autohet/internal/obs"

// Serving-level metrics on the shared registry. The discrete-event
// simulations run in virtual time, so only event counts are published —
// virtual-nanosecond latencies would be meaningless on a wall-clock
// histogram (the fleet runtime, which does pace wall time, owns those).
var (
	servingRunsOpen = obs.Default.Counter(
		`autohet_serving_runs_total{mode="open"}`,
		"serving simulations run, by workload mode")
	servingRequests = obs.Default.Counter(
		"autohet_serving_requests_total",
		"requests completed across all serving simulations")
)
