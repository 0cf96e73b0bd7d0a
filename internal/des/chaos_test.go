package des

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"autohet/internal/chaos"
	"autohet/internal/des/trace"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("r%d", i)
	}
	return out
}

// Same config, same seeds, same chaos schedule, full resilience stack →
// byte-identical event log. This extends the determinism contract over
// fault injection, retry timers, hedges, and breakers.
func TestChaosDeterministicEventLog(t *testing.T) {
	run := func(chaosSeed int64) *bytes.Buffer {
		var buf bytes.Buffer
		cfg := DefaultConfig()
		cfg.Policy = PowerOfTwo
		cfg.ClusterPolicy = JoinShortestQueue
		cfg.Clusters = 4
		cfg.MaxBatch = 4
		cfg.QueueDepth = 16
		cfg.StatsWindowNS = 1e5
		cfg.Resilience = chaos.DefaultResilience()
		cfg.Chaos = chaos.Merge(
			chaos.CrashStorm(2e5, 2e5, names(16), 0.25, chaosSeed),
			chaos.SlowStorm(3e5, 2e5, names(16), 0.125, 20, chaosSeed),
		)
		cfg.Log = &buf
		f, err := NewFleet(cfg, homogeneous(16, 2000, 100)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.RunTrace(trace.Bursty(1e8, 1.9, 5e5, 17), 20000, 50000)
		if err != nil {
			t.Fatal(err)
		}
		conserve(t, res)
		if res.ChaosEvents == 0 {
			t.Fatal("no chaos events applied")
		}
		return &buf
	}
	a, b := run(21), run(21)
	if a.Len() == 0 {
		t.Fatal("empty event log")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same chaos seed produced different event logs (%d vs %d bytes)", a.Len(), b.Len())
	}
	if c := run(22); bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("different chaos seeds produced identical event logs")
	}
}

// Legacy engine (no resilience) under a crash: queued copies fail, arrivals
// during a full outage are unroutable, and the fleet recovers after restart.
func TestCrashFailsQueueAndOutageIsUnroutable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 1 << 14
	cfg.Chaos = chaos.Scripted(
		chaos.Event{AtNS: 60000, Kind: chaos.Crash, Target: "r0"},
		chaos.Event{AtNS: 60000, Kind: chaos.Crash, Target: "r1"},
		chaos.Event{AtNS: 120000, Kind: chaos.Restart, Target: "r0"},
		chaos.Event{AtNS: 120000, Kind: chaos.Restart, Target: "r1"},
	)
	// 1.25x overload builds a backlog before the crash drains it.
	f, err := NewFleet(cfg, homogeneous(2, 1000, 100)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunTrace(trace.Poisson(2.5e7, 3), 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	if res.Failed == 0 {
		t.Fatal("crash drained no queued requests")
	}
	if res.Unroutable == 0 {
		t.Fatal("no unroutable arrivals during the full outage")
	}
	if res.Shed != 0 {
		t.Fatalf("%d overload sheds counted; outage losses must be unroutable", res.Shed)
	}
	if res.ChaosEvents != 4 {
		t.Fatalf("%d chaos events applied, want 4", res.ChaosEvents)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed around the outage")
	}
}

// Retry with backoff recovers crash-drained copies onto the surviving
// replica instead of failing them.
func TestRetryRecoversCrashLosses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 1 << 14
	cfg.Resilience = chaos.Resilience{
		Retry: &chaos.RetryPolicy{BudgetFrac: 1, BudgetBurst: 1e6},
	}
	cfg.Chaos = chaos.Scripted(
		chaos.Event{AtNS: 60000, Kind: chaos.Crash, Target: "r0"},
	)
	// 1.25x overload so a backlog exists for the crash to drain.
	f, err := NewFleet(cfg, homogeneous(2, 1000, 100)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunTrace(trace.Poisson(2.5e7, 3), 5000, 0)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	if res.Retried == 0 {
		t.Fatal("crash drained a backlog but nothing retried")
	}
	if res.Failed != 0 {
		t.Fatalf("%d requests failed despite retries and a surviving replica", res.Failed)
	}
	if res.Completed != res.Offered {
		t.Fatalf("%d of %d completed", res.Completed, res.Offered)
	}
}

// Hedged requests rescue the tail a fail-slow replica creates: the backup
// copy on the healthy replica wins first, so the hedged run's p99 beats the
// plain run's.
func TestHedgingCutsFailSlowTail(t *testing.T) {
	run := func(hedge bool) *Result {
		cfg := DefaultConfig()
		cfg.QueueDepth = 64
		cfg.Chaos = chaos.Scripted(
			chaos.Event{AtNS: 0, Kind: chaos.Slow, Target: "r0", Value: 100},
		)
		if hedge {
			cfg.Resilience = chaos.Resilience{
				Hedge: &chaos.HedgePolicy{MinDelayNS: 5000, MaxDelayNS: 5000, MinSamples: 1 << 30},
			}
		}
		f, err := NewFleet(cfg, homogeneous(2, 1000, 100)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.RunTrace(trace.Poisson(1e6, 7), 500, 0)
		if err != nil {
			t.Fatal(err)
		}
		conserve(t, res)
		return res
	}
	plain, hedged := run(false), run(true)
	if hedged.Hedged == 0 {
		t.Fatal("no hedges launched")
	}
	if hedged.HedgeWasted == 0 {
		t.Fatal("no wasted hedge copies — first-wins cancellation untested")
	}
	if hedged.Completed != hedged.Offered {
		t.Fatalf("%d of %d completed with hedging", hedged.Completed, hedged.Offered)
	}
	if hedged.P99NS >= plain.P99NS {
		t.Fatalf("hedged p99 %.0f ns not below plain p99 %.0f ns", hedged.P99NS, plain.P99NS)
	}
}

// Brownout sheds only non-top-priority arrivals once the backlog crosses
// the threshold.
func TestBrownoutShedsLowPriorityOnly(t *testing.T) {
	var buf bytes.Buffer
	cfg := DefaultConfig()
	cfg.QueueDepth = 1 << 14
	cfg.Resilience = chaos.Resilience{
		Brownout: &chaos.BrownoutPolicy{MaxQueuedPerActive: 4, Levels: 4},
	}
	cfg.Log = &buf
	f, err := NewFleet(cfg, homogeneous(1, 1000, 100)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunTrace(trace.Poisson(4e7, 5), 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	if res.BrownoutShed == 0 {
		t.Fatal("no brownout sheds at 4x overload")
	}
	if int64(res.Shed) != res.BrownoutShed {
		t.Fatalf("shed %d != brownout shed %d (deep queues should shed only via brownout)",
			res.Shed, res.BrownoutShed)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.Contains(line, "reason=brownout") {
			continue
		}
		var tt float64
		var id int
		if _, err := fmt.Sscanf(line, "H t=%f id=%d", &tt, &id); err != nil {
			t.Fatalf("unparseable brownout line %q: %v", line, err)
		}
		if id%4 == 0 {
			t.Fatalf("top-priority request %d brownout-shed", id)
		}
	}
}

// A fail-slow replica blows its requests' budgets; the circuit breaker
// catches the failure streak and routes traffic away from it.
func TestBreakerIsolatesFailSlowReplica(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 1 << 14
	cfg.Resilience = chaos.Resilience{
		Breaker: &chaos.BreakerConfig{FailureThreshold: 5, OpenNS: 50000},
		Retry:   &chaos.RetryPolicy{BudgetFrac: 1, BudgetBurst: 1e6},
	}
	cfg.Chaos = chaos.Scripted(
		chaos.Event{AtNS: 0, Kind: chaos.Slow, Target: "r0", Value: 50},
	)
	f, err := NewFleet(cfg, homogeneous(2, 1000, 100)...)
	if err != nil {
		t.Fatal(err)
	}
	// Budget 3000 ns: r0's 50x-slow fill (50000 ns) can never make it.
	res, err := f.RunTrace(trace.Poisson(5e6, 9), 3000, 3000)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	r0, r1 := f.replicas[0], f.replicas[1]
	if r0.breaker.State() == chaos.BreakerClosed {
		t.Fatal("breaker still closed on a replica that failed every request")
	}
	if r0.served != 0 {
		t.Fatalf("fail-slow replica served %d requests within a 3000 ns budget", r0.served)
	}
	if r1.served == 0 {
		t.Fatal("healthy replica served nothing")
	}
	// The breaker caps r0's blast radius: once open, only cooldown probes
	// reach it, so nearly everything completes on r1.
	if frac := float64(res.Completed) / float64(res.Offered); frac < 0.9 {
		t.Fatalf("only %.0f%% completed with the breaker isolating the bad replica", 100*frac)
	}
}

// Windowed stats partition the run and surface the crash-storm goodput dip.
func TestWindowedStatsPartitionRun(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = JoinShortestQueue
	cfg.Clusters = 2
	cfg.QueueDepth = 1 << 14
	cfg.StatsWindowNS = 1e7
	cfg.Resilience = chaos.DefaultResilience()
	cfg.Chaos = chaos.Merge(
		chaos.CrashStorm(3e7, 2e7, names(8), 0.5, 11),
	)
	f, err := NewFleet(cfg, homogeneous(8, 5e5, 1e5)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunTrace(trace.Poisson(4e4, 13), 4000, 0)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	if len(res.Windows) == 0 {
		t.Fatal("no windows with StatsWindowNS set")
	}
	var arrived, completed, expired, failed, shed, unroutable int64
	for _, w := range res.Windows {
		arrived += w.Arrived
		completed += w.Completed
		expired += w.Expired
		failed += w.Failed
		shed += w.Shed
		unroutable += w.Unroutable
	}
	if arrived != int64(res.Offered) {
		t.Fatalf("windowed arrivals %d != offered %d", arrived, res.Offered)
	}
	if completed != int64(res.Completed) || expired != int64(res.Expired) ||
		failed != int64(res.Failed) || shed != int64(res.Shed) || unroutable != int64(res.Unroutable) {
		t.Fatalf("windowed outcomes (%d,%d,%d,%d,%d) != result (%d,%d,%d,%d,%d)",
			completed, expired, failed, shed, unroutable,
			res.Completed, res.Expired, res.Failed, res.Shed, res.Unroutable)
	}
}

// Per-cluster admission-rejection counts sum to the fleet total.
func TestAdmissionShedPerClusterSums(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clusters = 4
	cfg.Policy = JoinShortestQueue
	cfg.ClusterPolicy = JoinShortestQueue
	cfg.QueueDepth = 1 << 14
	cfg.Admit = QueueCap{MaxQueuedPerActive: 4}
	f, err := NewFleet(cfg, homogeneous(8, 1000, 100)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunTrace(trace.Poisson(3e8, 5), 8000, 0)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	if res.AdmissionShed == 0 {
		t.Fatal("no admission sheds under ~4x overload")
	}
	var sum int64
	for _, cl := range res.Clusters {
		sum += cl.AdmissionShed
	}
	if sum != res.AdmissionShed {
		t.Fatalf("per-cluster admission sheds sum %d != fleet total %d", sum, res.AdmissionShed)
	}
}

// NewFleet rejects chaos events the core cannot apply: before, a NaN
// fail-slow factor ran to completion reporting NaN latencies, and NaN
// timestamps landed in the queue and counted as applied.
func TestChaosScheduleValidation(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name string
		ev   chaos.Event
		ok   bool
	}{
		{"crash", chaos.Event{AtNS: 1e3, Kind: chaos.Crash, Target: "r0"}, true},
		{"slow restore", chaos.Event{AtNS: 0, Kind: chaos.Slow, Target: "r0", Value: 1}, true},
		{"link restore", chaos.Event{AtNS: 0, Kind: chaos.Link, Target: "r0"}, true},
		{"fault clear", chaos.Event{AtNS: 0, Kind: chaos.Faults, Target: "r0"}, true},
		{"NaN time", chaos.Event{AtNS: nan, Kind: chaos.Crash, Target: "r0"}, false},
		{"+Inf time", chaos.Event{AtNS: inf, Kind: chaos.Restart, Target: "r0"}, false},
		{"NaN slow factor", chaos.Event{AtNS: 0, Kind: chaos.Slow, Target: "r0", Value: nan}, false},
		{"+Inf slow factor", chaos.Event{AtNS: 0, Kind: chaos.Slow, Target: "r0", Value: inf}, false},
		{"slow factor below 1", chaos.Event{AtNS: 0, Kind: chaos.Slow, Target: "r0", Value: 0.5}, false},
		{"negative link penalty", chaos.Event{AtNS: 0, Kind: chaos.Link, Target: "r0", Value: -1}, false},
		{"+Inf link penalty", chaos.Event{AtNS: 0, Kind: chaos.Link, Target: "r0", Value: inf}, false},
		{"negative fault rate", chaos.Event{AtNS: 0, Kind: chaos.Faults, Target: "r0", Value: -0.1}, false},
		{"fault rate above 1", chaos.Event{AtNS: 0, Kind: chaos.Faults, Target: "r0", Value: 1.5}, false},
		{"NaN fault rate", chaos.Event{AtNS: 0, Kind: chaos.Faults, Target: "r0", Value: nan}, false},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.Chaos = chaos.Scripted(c.ev)
		_, err := NewFleet(cfg, homogeneous(2, 1000, 100)...)
		if (err == nil) != c.ok {
			t.Errorf("%s: NewFleet error %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
