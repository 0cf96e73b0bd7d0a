package fleet

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"autohet/internal/des"
	"autohet/internal/fault"
	"autohet/internal/sim"
)

// fastPipeline and slowPipeline are fixed service profiles so tests stay
// independent of plan construction. freeRunning disables wall pacing: the
// submitter steps the fleet, so its virtual accounting is exact however
// fast the pacer could run.
func fastPipeline() *sim.PipelineResult { return &sim.PipelineResult{FillNS: 1000, IntervalNS: 100} }
func slowPipeline() *sim.PipelineResult { return &sim.PipelineResult{FillNS: 4000, IntervalNS: 800} }

func freeRunning() Config {
	cfg := DefaultConfig()
	cfg.TimeScale = 1e-9
	return cfg
}

// frozen is a real-time config whose batch collect window outlasts any
// test: batches close only by count, so the requests a test submits stay
// queued where dispatch put them until the test fills a batch or crashes
// the replica. The core's event log records every dispatch (lastPick).
func frozen(policy Policy, maxBatch int) Config {
	cfg := DefaultConfig()
	cfg.Policy = policy
	cfg.MaxBatch = maxBatch
	cfg.BatchTimeoutNS = 1e12
	cfg.Log = &logBuf{}
	return cfg
}

// logBuf is a goroutine-safe event-log sink.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) since(n int) (string, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return string(l.b.Bytes()[n:]), l.b.Len()
}

// mustNew builds a fleet or fails the test.
func mustNew(t *testing.T, cfg Config, specs ...ReplicaSpec) *Fleet {
	t.Helper()
	f, err := New(cfg, specs...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// submit submits a request arriving at arrivalNS or fails the test.
func submit(t *testing.T, f *Fleet, arrivalNS float64, done chan Outcome) {
	t.Helper()
	if err := f.Submit(NewRequest(arrivalNS, 0, done)); err != nil {
		t.Fatal(err)
	}
}

// queued returns each replica's current admission-queue depth.
func queued(f *Fleet) []int {
	var q []int
	for _, r := range f.Snapshot().Replicas {
		q = append(q, r.Queued)
	}
	return q
}

// Outcomes are delivered off the fleet's lock: a caller may hand Submit an
// unbuffered done channel and receive only after Submit returns, even when
// the request resolves inside Submit (an idle replica prices it at once),
// and the fleet stays usable while that outcome waits for its receiver.
func TestUnbufferedDoneAfterSubmit(t *testing.T) {
	for _, ts := range []float64{1e-9, 1} {
		cfg := DefaultConfig()
		cfg.TimeScale = ts
		f := mustNew(t, cfg, ReplicaSpec{Pipeline: fastPipeline()})
		done := make(chan Outcome)
		for i := 0; i < 3; i++ {
			if err := f.Submit(NewRequest(float64(i)*1e4, 0, done)); err != nil {
				t.Fatal(err)
			}
			if s := f.Snapshot(); s.Submitted != int64(i+1) {
				t.Fatalf("TimeScale %v: snapshot %v while an outcome waits", ts, s)
			}
			select {
			case out := <-done:
				if out.Err != nil || out.LatencyNS != 1000 {
					t.Fatalf("TimeScale %v: outcome %+v, want a 1000 ns completion", ts, out)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("TimeScale %v: outcome %d never delivered", ts, i)
			}
		}
		f.Close()
	}
}

func TestSingleReplicaRecurrence(t *testing.T) {
	f, err := New(freeRunning(), ReplicaSpec{Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals every 50 ns against a 100 ns interval: entry_i =
	// max(arrival_i, entry_{i-1}+100), completion = entry + 1000.
	const n = 50
	done := make(chan Outcome, n)
	for i := 0; i < n; i++ {
		if err := f.Submit(NewRequest(float64(i)*50, 0, done)); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	got := map[float64]int{}
	for i := 0; i < n; i++ {
		out := <-done
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		got[out.LatencyNS]++
	}
	// Request i arrives at 50i, enters at 100i (the pipeline is the
	// bottleneck from the first request on), so latency = 1000 + 50i.
	for i := 0; i < n; i++ {
		want := 1000 + 50*float64(i)
		if got[want] != 1 {
			t.Fatalf("latency %v appears %d times, want once", want, got[want])
		}
	}
	s := f.Snapshot()
	if s.Completed != n || s.Shed != 0 || s.Expired != 0 {
		t.Fatalf("snapshot %v", s)
	}
}

func TestBatchingBySize(t *testing.T) {
	f := mustNew(t, frozen(RoundRobin, 8), ReplicaSpec{Pipeline: fastPipeline()})
	done := make(chan Outcome, 8)
	// Eight arrivals at 0: the collect window never closes, so the eighth
	// fills the batch and it enters at 0.
	for i := 0; i < 8; i++ {
		submit(t, f, 0, done)
	}
	f.Close()
	got := map[float64]int{}
	for i := 0; i < 8; i++ {
		out := <-done
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		got[out.LatencyNS]++
	}
	// One batch of 8 entering at 0: member i completes at fill + i·interval.
	for i := 0; i < 8; i++ {
		want := 1000 + 100*float64(i)
		if got[want] != 1 {
			t.Fatalf("latency %v appears %d times, want once", want, got[want])
		}
	}
	s := f.Snapshot().Replicas[0]
	if s.Batches != 1 || s.MeanBatch != 8 {
		t.Fatalf("batches %d mean %v, want one batch of 8", s.Batches, s.MeanBatch)
	}
}

func TestBatchTimeoutAddsLatency(t *testing.T) {
	cfg := freeRunning()
	cfg.MaxBatch = 8
	cfg.BatchTimeoutNS = 5000
	f, err := New(cfg, ReplicaSpec{Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Outcome, 1)
	if err := f.Submit(NewRequest(0, 0, done)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out := <-done
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	// A lone request waits out the batch timeout before entering.
	want := 5000 + 1000.0
	if out.LatencyNS != want {
		t.Fatalf("latency %v, want %v (timeout + fill)", out.LatencyNS, want)
	}
}

func TestBackpressureSheds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 2
	cfg.TimeScale = 0.01 // pace so the queue actually fills
	f, err := New(cfg, ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 1e6, IntervalNS: 1e6}})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	done := make(chan Outcome, n)
	accepted, shed := 0, 0
	for i := 0; i < n; i++ {
		switch err := f.Submit(NewRequest(float64(i), 0, done)); err {
		case nil:
			accepted++
		case ErrShed:
			shed++
		default:
			t.Fatal(err)
		}
	}
	f.Close()
	if shed == 0 {
		t.Fatal("burst into a depth-2 queue must shed")
	}
	for i := 0; i < accepted; i++ {
		if out := <-done; out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	s := f.Snapshot()
	if int(s.Shed) != shed || int(s.Completed) != accepted || s.Submitted != n {
		t.Fatalf("accounting: %v (accepted %d, shed %d)", s, accepted, shed)
	}
}

func TestLatencyBudgetExpires(t *testing.T) {
	f := mustNew(t, freeRunning(), ReplicaSpec{Pipeline: fastPipeline()})
	const n = 10
	done := make(chan Outcome, n)
	for i := 0; i < n; i++ {
		// All arrive at 0 with budget 1249: request i would complete at
		// 100i + 1000, so exactly requests 0..2 fit, and the expired ones
		// consume no pipeline time.
		if err := f.Submit(NewRequest(0, 1249, done)); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	completed, expired := 0, 0
	for i := 0; i < n; i++ {
		switch out := <-done; out.Err {
		case nil:
			completed++
		case ErrDeadline:
			expired++
		default:
			t.Fatal(out.Err)
		}
	}
	if completed != 3 || expired != n-3 {
		t.Fatalf("completed %d expired %d, want 3 and %d", completed, expired, n-3)
	}
	s := f.Snapshot()
	if s.Expired != int64(n-3) || s.Replicas[0].Expired != int64(n-3) {
		t.Fatalf("expired counters %d / %d", s.Expired, s.Replicas[0].Expired)
	}
}

func TestDegradedReplicaRetriesElsewhere(t *testing.T) {
	f := mustNew(t, frozen(RoundRobin, 6),
		ReplicaSpec{Name: "healthy", Pipeline: fastPipeline()},
		ReplicaSpec{Name: "faulty", Pipeline: fastPipeline()})
	const n = 5
	done := make(chan Outcome, n)
	// Stage five requests in faulty's forming batch.
	if err := f.Crash("healthy"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		submit(t, f, float64(i)*10, done)
	}
	if err := f.Restart("healthy"); err != nil {
		t.Fatal(err)
	}
	// 5% stuck-at cells is far above the 1% degradation threshold.
	if err := f.InjectFault("faulty", &fault.Model{StuckAtZero: 0.05, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	// The bounced five wait in healthy's batch; a sixth fills it.
	filler := make(chan Outcome, 1)
	submit(t, f, 50, filler)
	f.Close()
	for i := 0; i < n; i++ {
		out := <-done
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if out.Replica != "healthy" || out.Retries != 1 {
			t.Fatalf("outcome %+v, want served by healthy after one retry", out)
		}
	}
	if out := <-filler; out.Err != nil || out.Retries != 0 {
		t.Fatalf("filler outcome %+v", out)
	}
	s := f.Snapshot()
	if s.Retried != n || s.Completed != n+1 || s.Failed != 0 {
		t.Fatalf("snapshot %v", s)
	}
}

func TestAllDegradedFailsAfterRetry(t *testing.T) {
	f := mustNew(t, frozen(RoundRobin, 2), ReplicaSpec{Name: "only", Pipeline: fastPipeline()})
	done := make(chan Outcome, 1)
	submit(t, f, 0, done)
	if err := f.InjectFault("only", &fault.Model{StuckAtOne: 0.02}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out := <-done
	if out.Err != ErrNoReplica {
		t.Fatalf("outcome err %v, want ErrNoReplica", out.Err)
	}
	if s := f.Snapshot(); s.Failed != 1 {
		t.Fatalf("failed %d, want 1", s.Failed)
	}
	// Submitting against a fully degraded fleet is rejected up front.
	f2 := mustNew(t, freeRunning(), ReplicaSpec{Name: "only", Pipeline: fastPipeline(),
		Faults: &fault.Model{StuckAtZero: 0.02}})
	defer f2.Close()
	if err := f2.Submit(NewRequest(0, 0, done)); err != ErrNoReplica {
		t.Fatalf("submit to degraded fleet: %v, want ErrNoReplica", err)
	}
}

// Regression: overload rejections (ErrShed, every healthy queue full) and
// outage rejections (ErrNoReplica, nothing healthy) land on separate
// counters, so chaos experiments can tell backpressure from blast radius.
func TestShedVsUnroutableSplit(t *testing.T) {
	// Outage: a fully degraded fleet counts Unroutable, never Shed.
	f, err := New(freeRunning(), ReplicaSpec{Name: "only", Pipeline: fastPipeline(),
		Faults: &fault.Model{StuckAtZero: 0.02}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Outcome, 4)
	for i := 0; i < 3; i++ {
		if err := f.Submit(NewRequest(float64(i), 0, done)); err != ErrNoReplica {
			t.Fatalf("submit %d: %v, want ErrNoReplica", i, err)
		}
	}
	f.Close()
	if s := f.Snapshot(); s.Unroutable != 3 || s.Shed != 0 {
		t.Fatalf("outage accounting: %v, want 3 unroutable / 0 shed", s)
	}

	// Overload: a healthy fleet with full queues counts Shed, never
	// Unroutable (the forming batch holds the one queue slot).
	cfg := frozen(RoundRobin, 2)
	cfg.QueueDepth = 1
	f2 := mustNew(t, cfg, ReplicaSpec{Name: "only", Pipeline: fastPipeline()})
	shed := 0
	for i := 0; i < 3; i++ {
		switch err := f2.Submit(NewRequest(float64(i), 0, done)); err {
		case nil:
		case ErrShed:
			shed++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if shed != 2 {
		t.Fatalf("depth-1 queue took %d sheds from 3 submits, want 2", shed)
	}
	// Crashing the replica fails the staged request, so Close drains.
	if err := f2.Crash("only"); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	if s := f2.Snapshot(); s.Shed != 2 || s.Unroutable != 0 {
		t.Fatalf("overload accounting: %v, want 2 shed / 0 unroutable", s)
	}
}

func TestInjectFaultBelowThresholdAndRecovery(t *testing.T) {
	f, err := New(freeRunning(), ReplicaSpec{Name: "a", Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.InjectFault("a", &fault.Model{StuckAtZero: 0.001}); err != nil {
		t.Fatal(err)
	}
	if f.Snapshot().Replicas[0].Degraded {
		t.Fatal("0.1% faults must stay below the 1% degradation threshold")
	}
	if err := f.InjectFault("a", &fault.Model{StuckAtZero: 0.5}); err != nil {
		t.Fatal(err)
	}
	if !f.Snapshot().Replicas[0].Degraded {
		t.Fatal("50% faults must degrade")
	}
	if err := f.InjectFault("a", nil); err != nil {
		t.Fatal(err)
	}
	if f.Snapshot().Replicas[0].Degraded {
		t.Fatal("nil model must recover the replica")
	}
	if err := f.InjectFault("missing", nil); err == nil {
		t.Fatal("unknown replica must error")
	}
	if err := f.InjectFault("a", &fault.Model{StuckAtZero: -1}); err == nil {
		t.Fatal("invalid model must error")
	}
}

// stageQueues leaves want[i] requests waiting in replica i's forming batch
// (a frozen fleet under a health-weighted policy): every other replica is
// made sick enough (health 0.01) that the policy avoids it while i's share
// is submitted, then recovered. Sickness short of degradation drains
// nothing.
func stageQueues(t *testing.T, f *Fleet, want []int, done chan Outcome) {
	t.Helper()
	names := f.Replicas()
	sick := &fault.Model{StuckAtZero: 0.0099}
	for i, n := range want {
		for j, name := range names {
			if j != i {
				if err := f.InjectFault(name, sick); err != nil {
					t.Fatal(err)
				}
			}
		}
		for k := 0; k < n; k++ {
			submit(t, f, 0, done)
		}
		for _, name := range names {
			if err := f.InjectFault(name, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := queued(f); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("staged queues %v, want %v", got, want)
	}
}

// release crashes every replica, failing whatever is still staged, and
// closes the fleet.
func release(t *testing.T, f *Fleet) {
	t.Helper()
	for _, name := range f.Replicas() {
		if err := f.Crash(name); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
}

// lastPick submits one request to a frozen fleet and returns the replica
// dispatch placed it on (from the "D" line the core logged).
func lastPick(t *testing.T, f *Fleet, done chan Outcome) string {
	t.Helper()
	lb := f.cfg.Log.(*logBuf)
	_, n := lb.since(0)
	submit(t, f, 0, done)
	tail, _ := lb.since(n)
	for _, line := range strings.Split(tail, "\n") {
		if !strings.HasPrefix(line, "D ") {
			continue
		}
		for _, field := range strings.Fields(line) {
			if name, ok := strings.CutPrefix(field, "r="); ok {
				return name
			}
		}
	}
	t.Fatalf("no dispatch logged in %q", tail)
	return ""
}

func TestPolicyPick(t *testing.T) {
	abc := []ReplicaSpec{
		{Name: "a", Pipeline: fastPipeline()},
		{Name: "b", Pipeline: fastPipeline()},
		{Name: "c", Pipeline: fastPipeline()},
	}
	done := make(chan Outcome, 128)

	// Round robin skips the degraded replica.
	cfg := freeRunning()
	rr := mustNew(t, cfg, abc...)
	if err := rr.InjectFault("b", &fault.Model{StuckAtZero: 0.05}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		submit(t, rr, float64(i)*1e4, done)
	}
	rr.Close()
	seen := map[string]int{}
	for i := 0; i < 6; i++ {
		seen[(<-done).Replica]++
	}
	if seen["a"] != 3 || seen["c"] != 3 || seen["b"] != 0 {
		t.Fatalf("round-robin over healthy replicas: %v", seen)
	}

	// jsq picks the empty queue; with it gone (its queue bounced by a
	// crash), the shorter of the rest.
	jsq := mustNew(t, frozen(JoinShortestQueue, 64), abc...)
	stageQueues(t, jsq, []int{2, 1, 0}, done)
	if got := lastPick(t, jsq, done); got != "c" {
		t.Fatalf("jsq picked %q, want the empty queue c", got)
	}
	if err := jsq.Crash("c"); err != nil {
		t.Fatal(err)
	}
	if got := queued(jsq); got[1] != 2 {
		t.Fatalf("jsq re-dispatch excluding c left queues %v, want b at 2", got)
	}
	release(t, jsq)

	// Least-outstanding counts queued plus executing work.
	lo := mustNew(t, frozen(LeastOutstanding, 64), abc...)
	stageQueues(t, lo, []int{5, 0, 2}, done)
	if got := lastPick(t, lo, done); got != "b" {
		t.Fatalf("least-outstanding picked %q, want b", got)
	}
	release(t, lo)

	// p2c never picks the strictly longest queue: whichever pair it
	// samples, the other member is shorter. (p2c's own sampling would
	// defeat the sickness staging, so it starts from the queues its first
	// picks build.)
	p2c := mustNew(t, frozen(PowerOfTwo, 64), abc...)
	for i := 0; i < 4; i++ {
		submit(t, p2c, 0, done)
	}
	for i := 0; i < 32; i++ {
		before := queued(p2c)
		got := lastPick(t, p2c, done)
		k := map[string]int{"a": 0, "b": 1, "c": 2}[got]
		longest := true
		for j := range before {
			if j != k && before[j] >= before[k] {
				longest = false
			}
		}
		if longest {
			t.Fatalf("p2c picked %s, the strictly longest queue in %v", got, before)
		}
	}
	release(t, p2c)
}

func TestParsePolicy(t *testing.T) {
	for _, p := range Policies {
		got, err := ParsePolicy(string(p))
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %q, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy must error")
	}
}

func TestCloseIsIdempotentAndRejects(t *testing.T) {
	f, err := New(freeRunning(), ReplicaSpec{Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan Outcome, 4)
	for i := 0; i < 4; i++ {
		if err := f.Submit(NewRequest(float64(i), 0, done)); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	f.Close()
	if err := f.Submit(NewRequest(0, 0, done)); err != ErrClosed {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	for i := 0; i < 4; i++ {
		if out := <-done; out.Err != nil {
			t.Fatal(out.Err)
		}
	}
}

// core returns a fleet config with the core fields set by mutate.
func core(mutate func(*des.Config)) Config {
	cfg := DefaultConfig()
	mutate(&cfg.Config)
	return cfg
}

func TestValidation(t *testing.T) {
	good := ReplicaSpec{Pipeline: fastPipeline()}
	cases := []struct {
		name  string
		cfg   Config
		specs []ReplicaSpec
	}{
		{"no replicas", DefaultConfig(), nil},
		{"degenerate pipeline", DefaultConfig(), []ReplicaSpec{{Pipeline: &sim.PipelineResult{}}}},
		{"nil pipeline", DefaultConfig(), []ReplicaSpec{{}}},
		{"duplicate names", DefaultConfig(), []ReplicaSpec{{Name: "x", Pipeline: fastPipeline()}, {Name: "x", Pipeline: fastPipeline()}}},
		{"bad policy", core(func(c *des.Config) { c.Policy = "nope" }), []ReplicaSpec{good}},
		{"negative batch", core(func(c *des.Config) { c.MaxBatch = -1 }), []ReplicaSpec{good}},
		{"negative queue", core(func(c *des.Config) { c.QueueDepth = -1 }), []ReplicaSpec{good}},
		{"negative timescale", Config{TimeScale: -1}, []ReplicaSpec{good}},
		{"negative retries", core(func(c *des.Config) { c.MaxRetries = -2 }), []ReplicaSpec{good}},
		{"bad fault model", DefaultConfig(), []ReplicaSpec{{Pipeline: fastPipeline(), Faults: &fault.Model{StuckAtZero: 2}}}},
	}
	for _, c := range cases {
		if _, err := New(c.cfg, c.specs...); err == nil {
			t.Errorf("%s: must error", c.name)
		}
	}
	if err := (&Fleet{}).Submit(nil); err == nil {
		t.Error("nil request must error")
	}
}

// Non-finite and out-of-range timing knobs are rejected by the one shared
// normalize, under both drivers, with an error rather than a panic or a
// run that reports +Inf latencies.
func TestConfigRejectsNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name   string
		mutate func(*des.Config)
	}{
		{"NaN batch timeout", func(c *des.Config) { c.BatchTimeoutNS = nan; c.MaxBatch = 4 }},
		{"+Inf batch timeout", func(c *des.Config) { c.BatchTimeoutNS = inf; c.MaxBatch = 4 }},
		{"-Inf batch timeout", func(c *des.Config) { c.BatchTimeoutNS = -inf; c.MaxBatch = 4 }},
		{"negative degrade threshold", func(c *des.Config) { c.DegradeThreshold = -0.01 }},
		{"NaN degrade threshold", func(c *des.Config) { c.DegradeThreshold = nan }},
		{"+Inf degrade threshold", func(c *des.Config) { c.DegradeThreshold = inf }},
		{"+Inf stage transfer", func(c *des.Config) { c.Shards = 2; c.StageTransferNS = []float64{inf} }},
		{"NaN stage transfer", func(c *des.Config) { c.Shards = 2; c.StageTransferNS = []float64{nan} }},
		{"NaN health sweep", func(c *des.Config) { c.HealthSweepNS = nan }},
		{"NaN control period", func(c *des.Config) { c.ControlPeriodNS = nan }},
		{"NaN stats window", func(c *des.Config) { c.StatsWindowNS = nan }},
		{"retries beyond 255", func(c *des.Config) { c.MaxRetries = 256 }},
	}
	specs := []ReplicaSpec{{Pipeline: fastPipeline()}, {Pipeline: fastPipeline()}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := des.DefaultConfig()
			c.mutate(&cfg)
			if _, err := des.NewFleet(cfg, specs...); err == nil {
				t.Error("des.NewFleet accepted it")
			}
			if f, err := New(Config{Config: cfg, TimeScale: 1}, specs...); err == nil {
				f.Close()
				t.Error("fleet.New accepted it")
			}
		})
	}
	for _, ts := range []float64{nan, inf, -inf, -1} {
		if f, err := New(Config{TimeScale: ts}, specs...); err == nil {
			f.Close()
			t.Errorf("fleet.New accepted TimeScale %v", ts)
		}
	}
}

func TestRunValidationAndSummary(t *testing.T) {
	f, err := New(freeRunning(), ReplicaSpec{Pipeline: fastPipeline()})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := Run(f, Workload{ArrivalRate: 0, Requests: 10}); err == nil {
		t.Fatal("zero rate must error")
	}
	if _, err := Run(f, Workload{ArrivalRate: 1e6, Requests: 0}); err == nil {
		t.Fatal("zero requests must error")
	}
	res, err := Run(f, Workload{ArrivalRate: 1e6, Requests: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 100 {
		t.Fatalf("completed %d", res.Completed)
	}
	if !(res.P50NS <= res.P95NS && res.P95NS <= res.P99NS && res.P99NS <= res.MaxNS) {
		t.Fatalf("percentiles out of order: %+v", res)
	}
	if !strings.Contains(res.String(), "100 offered") {
		t.Fatalf("summary %q", res.String())
	}
	if !strings.Contains(f.Snapshot().String(), "fleet[1 replicas]") {
		t.Fatalf("snapshot summary %q", f.Snapshot().String())
	}
}

func TestSeedZeroMatchesServingDefault(t *testing.T) {
	run := func(seed int64) *Result {
		f, err := New(freeRunning(), ReplicaSpec{Pipeline: fastPipeline()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(f, Workload{ArrivalRate: 5e6, Requests: 300, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		return res
	}
	zero, def := run(0), run(42)
	if math.Abs(zero.MeanNS-def.MeanNS) > 1e-9 {
		t.Fatalf("Seed 0 mean %v != DefaultSeed mean %v", zero.MeanNS, def.MeanNS)
	}
}
