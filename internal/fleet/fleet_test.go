package fleet

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"autohet/internal/chaos"
	"autohet/internal/des"
	"autohet/internal/fault"
	"autohet/internal/sim"
)

// fastPipeline and slowPipeline are fixed service profiles so tests stay
// independent of plan construction. unpaced runs at a time scale so small
// that Run never sleeps; the virtual accounting is the same at any scale.
func fastPipeline() *sim.PipelineResult { return &sim.PipelineResult{FillNS: 1000, IntervalNS: 100} }
func slowPipeline() *sim.PipelineResult { return &sim.PipelineResult{FillNS: 4000, IntervalNS: 800} }

func unpaced() Config {
	cfg := DefaultConfig()
	cfg.TimeScale = 1e-9
	return cfg
}

// frozen is an unpaced config whose batch collect window outlasts any
// test's arrivals: batches close only by count until the end of the run,
// so requests stay queued where dispatch put them while a test steps
// through its script; a bounced request re-dispatches up to 3 times. The
// core's event log records every dispatch (lastPick) and every request's
// fate (outcomes).
func frozen(policy Policy, maxBatch int) Config {
	cfg := unpaced()
	cfg.Policy = policy
	cfg.MaxBatch = maxBatch
	cfg.BatchTimeoutNS = 1e12
	cfg.MaxRetries = 3
	cfg.Log = &bytes.Buffer{}
	return cfg
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

// mustRun runs a Poisson workload through Run or fails the test.
func mustRun(t *testing.T, f *Fleet, w Workload) *Result {
	t.Helper()
	res, err := Run(f, w)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// scripted is a trace.Generator replaying fixed, nondecreasing arrival
// times: request i arrives at at[i].
type scripted struct {
	at []float64
	i  int
}

func (s *scripted) Name() string { return "scripted" }

func (s *scripted) NextGapNS() float64 {
	prev := 0.0
	if s.i > 0 {
		prev = s.at[s.i-1]
	}
	s.i++
	return s.at[s.i-1] - prev
}

// begin starts a scripted trace on f's core. The test then fires events by
// hand with stepTo — Run's loop with the clock in the test's hands — so it
// can inject faults and read snapshots between arrivals, and ends the run
// with finish.
func begin(t *testing.T, f *Fleet, budgetNS float64, arrivals ...float64) {
	t.Helper()
	if err := f.core.Begin(&scripted{at: arrivals}, len(arrivals), budgetNS); err != nil {
		t.Fatal(err)
	}
}

// stepTo fires every pending event at or before virtual time at.
func stepTo(f *Fleet, at float64) {
	for next, ok := f.core.Next(); ok && next <= at; next, ok = f.core.Next() {
		f.core.Step()
	}
}

// finish fires the rest of the run and returns its Result.
func finish(t *testing.T, f *Fleet) *Result {
	t.Helper()
	for {
		res, err := f.core.Finished()
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			return res
		}
		f.core.Step()
	}
}

// runScript runs a whole scripted trace.
func runScript(t *testing.T, f *Fleet, budgetNS float64, arrivals ...float64) *Result {
	t.Helper()
	begin(t, f, budgetNS, arrivals...)
	return finish(t, f)
}

// ramp returns n arrival times start, start+gap, ...
func ramp(n int, start, gap float64) []float64 {
	at := make([]float64, n)
	for i := range at {
		at[i] = start + float64(i)*gap
	}
	return at
}

// outcome is one request's fate, read back from the core's event log.
type outcome struct {
	replica string // the replica that served it (or last held it)
	end     string // "served", or the reason it was dropped (budget, noreplica, ...)
	retries int    // bounces off replicas that stopped taking traffic
}

// outcomes parses the fleet's event log (frozen configs log to a buffer).
func outcomes(t *testing.T, f *Fleet) map[int]*outcome {
	t.Helper()
	out := map[int]*outcome{}
	for _, line := range strings.Split(f.cfg.Log.(*bytes.Buffer).String(), "\n") {
		kind, fields, _ := strings.Cut(line, " ")
		kv := map[string]string{}
		for _, field := range strings.Fields(fields) {
			if k, v, ok := strings.Cut(field, "="); ok {
				kv[k] = v
			}
		}
		id, err := strconv.Atoi(kv["id"])
		if err != nil {
			continue
		}
		o := out[id]
		if o == nil {
			o = &outcome{}
			out[id] = o
		}
		if r, ok := kv["r"]; ok {
			o.replica = r
		}
		switch kind {
		case "S":
			o.end = "served"
		case "X", "H":
			o.end = kv["reason"]
		case "B":
			o.retries++
		}
	}
	return out
}

// queued returns each replica's current admission-queue depth.
func queued(f *Fleet) []int {
	var q []int
	for _, r := range f.Snapshot().Replicas {
		q = append(q, r.Queued)
	}
	return q
}

func TestSingleReplicaRecurrence(t *testing.T) {
	f := mustNew(t, unpaced(), ReplicaSpec{Pipeline: fastPipeline()})
	// Arrivals every 50 ns against a 100 ns interval: entry_i =
	// max(arrival_i, entry_{i-1}+100), completion = entry + 1000.
	const n = 50
	res := runScript(t, f, 0, ramp(n, 0, 50)...)
	// Request i arrives at 50i, enters at 100i (the pipeline is the
	// bottleneck from the first request on), so latency = 1000 + 50i.
	for i, got := range res.LatenciesNS {
		if want := 1000 + 50*float64(i); got != want {
			t.Fatalf("latency %d = %v, want %v", i, got, want)
		}
	}
	s := f.Snapshot()
	if res.Completed != n || s.Completed != n || s.Shed != 0 || s.Expired != 0 {
		t.Fatalf("result %v, snapshot %v", res, s)
	}
}

func TestBatchingBySize(t *testing.T) {
	f := mustNew(t, frozen(RoundRobin, 8), ReplicaSpec{Pipeline: fastPipeline()})
	// Eight arrivals at 0: the collect window never closes, so the eighth
	// fills the batch and it enters at 0.
	res := runScript(t, f, 0, make([]float64, 8)...)
	// One batch of 8 entering at 0: member i completes at fill + i·interval.
	for i, got := range res.LatenciesNS {
		if want := 1000 + 100*float64(i); got != want {
			t.Fatalf("latency %d = %v, want %v", i, got, want)
		}
	}
	s := f.Snapshot().Replicas[0]
	if s.Batches != 1 || s.MeanBatch != 8 {
		t.Fatalf("batches %d mean %v, want one batch of 8", s.Batches, s.MeanBatch)
	}
}

func TestBatchTimeoutAddsLatency(t *testing.T) {
	cfg := unpaced()
	cfg.MaxBatch = 8
	cfg.BatchTimeoutNS = 5000
	f := mustNew(t, cfg, ReplicaSpec{Pipeline: fastPipeline()})
	res := runScript(t, f, 0, 0)
	// A lone request waits out the batch timeout before entering.
	if want := 5000 + 1000.0; res.Completed != 1 || res.LatenciesNS[0] != want {
		t.Fatalf("result %v, want one completion at %v ns (timeout + fill)", res, want)
	}
}

func TestBackpressureSheds(t *testing.T) {
	cfg := unpaced()
	cfg.QueueDepth = 2
	f := mustNew(t, cfg, ReplicaSpec{Pipeline: &sim.PipelineResult{FillNS: 1e6, IntervalNS: 1e6}})
	// A burst of 40 requests ~1 ns apart into a depth-2 queue.
	const n = 40
	res := mustRun(t, f, Workload{ArrivalRate: 1e9, Requests: n})
	if res.Shed == 0 {
		t.Fatal("burst into a depth-2 queue must shed")
	}
	s := f.Snapshot()
	if int(s.Shed) != res.Shed || int(s.Completed) != res.Completed || s.Submitted != n || res.Completed+res.Shed != n {
		t.Fatalf("accounting: snapshot %v, result %v", s, res)
	}
}

func TestLatencyBudgetExpires(t *testing.T) {
	f := mustNew(t, frozen(RoundRobin, 1), ReplicaSpec{Pipeline: fastPipeline()})
	const n = 10
	// All arrive at 0 with budget 1249: request i would complete at
	// 100i + 1000, so exactly requests 0..2 fit, and the expired ones
	// consume no pipeline time.
	res := runScript(t, f, 1249, make([]float64, n)...)
	ends := map[string]int{}
	for _, o := range outcomes(t, f) {
		ends[o.end]++
	}
	if res.Completed != 3 || res.Expired != n-3 || ends["served"] != 3 || ends["budget"] != n-3 {
		t.Fatalf("result %v, outcomes %v; want 3 completed and %d expired", res, ends, n-3)
	}
	s := f.Snapshot()
	if s.Expired != int64(n-3) || s.Replicas[0].Expired != int64(n-3) {
		t.Fatalf("expired counters %d / %d", s.Expired, s.Replicas[0].Expired)
	}
}

func TestDegradedReplicaRetriesElsewhere(t *testing.T) {
	cfg := frozen(RoundRobin, 6)
	// healthy is down while five requests arrive, so they form a batch on
	// faulty; it is back by the time faulty degrades.
	cfg.Chaos = crashBetween("healthy", 0, 45)
	f := mustNew(t, cfg,
		ReplicaSpec{Name: "healthy", Pipeline: fastPipeline()},
		ReplicaSpec{Name: "faulty", Pipeline: fastPipeline()})
	const n = 5
	begin(t, f, 0, 0, 10, 20, 30, 40, 50)
	stepTo(f, 45)
	if got := queued(f); got[1] != n {
		t.Fatalf("queues %v, want %d staged on faulty", got, n)
	}
	// 5% stuck-at cells is far above the 1% degradation threshold: the five
	// bounce to healthy's batch, and the sixth arrival fills it.
	if err := f.InjectFault("faulty", &fault.Model{StuckAtZero: 0.05, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	finish(t, f)
	outs := outcomes(t, f)
	for id := 0; id < n; id++ {
		if o := outs[id]; o.end != "served" || o.replica != "healthy" || o.retries != 1 {
			t.Fatalf("request %d: %+v, want served by healthy after one retry", id, o)
		}
	}
	if o := outs[n]; o.end != "served" || o.retries != 0 {
		t.Fatalf("filler: %+v", o)
	}
	s := f.Snapshot()
	if s.Retried != n || s.Completed != n+1 || s.Failed != 0 {
		t.Fatalf("snapshot %v", s)
	}
}

func TestAllDegradedFailsAfterRetry(t *testing.T) {
	f := mustNew(t, frozen(RoundRobin, 2), ReplicaSpec{Name: "only", Pipeline: fastPipeline()})
	begin(t, f, 0, 0)
	stepTo(f, 0)
	if err := f.InjectFault("only", &fault.Model{StuckAtOne: 0.02}); err != nil {
		t.Fatal(err)
	}
	res := finish(t, f)
	if o := outcomes(t, f)[0]; o.end != "noreplica" || o.retries != 1 {
		t.Fatalf("outcome %+v, want a failed bounce with no replica left", o)
	}
	if s := f.Snapshot(); res.Failed != 1 || s.Failed != 1 {
		t.Fatalf("failed %d / %d, want 1", res.Failed, s.Failed)
	}
	// Arrivals at a fully degraded fleet are refused up front.
	f2 := mustNew(t, unpaced(), ReplicaSpec{Name: "only", Pipeline: fastPipeline(),
		Faults: &fault.Model{StuckAtZero: 0.02}})
	if res := mustRun(t, f2, Workload{ArrivalRate: 1e6, Requests: 1}); res.Unroutable != 1 {
		t.Fatalf("arrival at a degraded fleet: %v, want unroutable", res)
	}
}

// Regression: overload rejections (every healthy queue full) and outage
// rejections (nothing healthy) land on separate counters, so chaos
// experiments can tell backpressure from blast radius.
func TestShedVsUnroutableSplit(t *testing.T) {
	// Outage: a fully degraded fleet counts Unroutable, never Shed.
	f := mustNew(t, unpaced(), ReplicaSpec{Name: "only", Pipeline: fastPipeline(),
		Faults: &fault.Model{StuckAtZero: 0.02}})
	res := mustRun(t, f, Workload{ArrivalRate: 1e6, Requests: 3})
	if s := f.Snapshot(); res.Unroutable != 3 || res.Shed != 0 || s.Unroutable != 3 || s.Shed != 0 {
		t.Fatalf("outage accounting: %v / %v, want 3 unroutable / 0 shed", res, s)
	}

	// Overload: a healthy fleet with full queues counts Shed, never
	// Unroutable (the forming batch holds the one queue slot).
	cfg := frozen(RoundRobin, 2)
	cfg.QueueDepth = 1
	f2 := mustNew(t, cfg, ReplicaSpec{Name: "only", Pipeline: fastPipeline()})
	res = runScript(t, f2, 0, 0, 1, 2)
	if s := f2.Snapshot(); res.Shed != 2 || res.Unroutable != 0 || s.Shed != 2 || s.Unroutable != 0 {
		t.Fatalf("overload accounting: %v / %v, want 2 shed / 0 unroutable", res, s)
	}
}

func TestInjectFaultBelowThresholdAndRecovery(t *testing.T) {
	f := mustNew(t, unpaced(), ReplicaSpec{Name: "a", Pipeline: fastPipeline()})
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

// slot spaces staged arrivals: long enough for every pipeline to drain
// between them, so only the frozen collect window holds requests.
const slot = 1e4

// stager feeds a scripted run on a frozen fleet one arrival at a time:
// request i arrives at virtual time (i+1)·slot.
type stager struct {
	t    *testing.T
	f    *Fleet
	next int
}

// stage begins a scripted run of n arrivals on f.
func stage(t *testing.T, f *Fleet, n int) *stager {
	begin(t, f, 0, ramp(n, slot, slot)...)
	return &stager{t: t, f: f}
}

// arrive fires the next arrival (and anything due before it).
func (s *stager) arrive() {
	s.next++
	stepTo(s.f, float64(s.next)*slot)
}

// names returns the replica names in construction order.
func names(f *Fleet) []string {
	var ns []string
	for _, r := range f.Snapshot().Replicas {
		ns = append(ns, r.Name)
	}
	return ns
}

// queues leaves want[i] requests waiting in replica i's forming batch
// (under a health-weighted policy): every other replica is made sick
// enough (health 0.01) that the policy avoids it while i's share arrives,
// then recovered. Sickness short of degradation drains nothing.
func (s *stager) queues(want []int) {
	s.t.Helper()
	sick := &fault.Model{StuckAtZero: 0.0099}
	ns := names(s.f)
	for i, n := range want {
		for j, name := range ns {
			if j != i {
				if err := s.f.InjectFault(name, sick); err != nil {
					s.t.Fatal(err)
				}
			}
		}
		for k := 0; k < n; k++ {
			s.arrive()
		}
		for _, name := range ns {
			if err := s.f.InjectFault(name, nil); err != nil {
				s.t.Fatal(err)
			}
		}
	}
	if got := queued(s.f); fmt.Sprint(got) != fmt.Sprint(want) {
		s.t.Fatalf("staged queues %v, want %v", got, want)
	}
}

// lastPick fires the next arrival and returns the replica dispatch placed
// it on.
func (s *stager) lastPick() string {
	s.t.Helper()
	s.arrive()
	return outcomes(s.t, s.f)[s.next-1].replica
}

// crashBetween is a chaos schedule holding the named replica down over
// [from, to) of virtual time.
func crashBetween(name string, from, to float64) *chaos.Schedule {
	return chaos.Scripted(
		chaos.Event{AtNS: from, Kind: chaos.Crash, Target: name},
		chaos.Event{AtNS: to, Kind: chaos.Restart, Target: name})
}

func TestPolicyPick(t *testing.T) {
	abc := []ReplicaSpec{
		{Name: "a", Pipeline: fastPipeline()},
		{Name: "b", Pipeline: fastPipeline()},
		{Name: "c", Pipeline: fastPipeline()},
	}

	// Round robin skips the degraded replica.
	rr := mustNew(t, frozen(RoundRobin, 1), abc...)
	if err := rr.InjectFault("b", &fault.Model{StuckAtZero: 0.05}); err != nil {
		t.Fatal(err)
	}
	runScript(t, rr, 0, ramp(6, 0, 1e4)...)
	seen := map[string]int{}
	for _, o := range outcomes(t, rr) {
		seen[o.replica]++
	}
	if seen["a"] != 3 || seen["c"] != 3 || seen["b"] != 0 {
		t.Fatalf("round-robin over healthy replicas: %v", seen)
	}

	// jsq picks the empty queue; with it gone (its queue bounced when it
	// degrades), the shorter of the rest.
	jsq := mustNew(t, frozen(JoinShortestQueue, 64), abc...)
	s := stage(t, jsq, 4)
	s.queues([]int{2, 1, 0})
	if got := s.lastPick(); got != "c" {
		t.Fatalf("jsq picked %q, want the empty queue c", got)
	}
	if err := jsq.InjectFault("c", &fault.Model{StuckAtZero: 0.05}); err != nil {
		t.Fatal(err)
	}
	if got := queued(jsq); got[1] != 2 {
		t.Fatalf("jsq re-dispatch excluding c left queues %v, want b at 2", got)
	}

	// Least-outstanding counts queued plus executing work.
	lo := mustNew(t, frozen(LeastOutstanding, 64), abc...)
	s = stage(t, lo, 8)
	s.queues([]int{5, 0, 2})
	if got := s.lastPick(); got != "b" {
		t.Fatalf("least-outstanding picked %q, want b", got)
	}

	// p2c never picks the strictly longest queue: whichever pair it
	// samples, the other member is shorter. (p2c's own sampling would
	// defeat the sickness staging, so it starts from the queues its first
	// picks build.)
	p2c := mustNew(t, frozen(PowerOfTwo, 64), abc...)
	s = stage(t, p2c, 36)
	for i := 0; i < 4; i++ {
		s.arrive()
	}
	for i := 0; i < 32; i++ {
		before := queued(p2c)
		got := s.lastPick()
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
			if _, err := New(Config{Config: cfg, TimeScale: 1}, specs...); err == nil {
				t.Error("fleet.New accepted it")
			}
		})
	}
	for _, ts := range []float64{nan, inf, -inf, -1} {
		if _, err := New(Config{TimeScale: ts}, specs...); err == nil {
			t.Errorf("fleet.New accepted TimeScale %v", ts)
		}
	}
}

func TestRunValidationAndSummary(t *testing.T) {
	f := mustNew(t, unpaced(), ReplicaSpec{Pipeline: fastPipeline()})
	if _, err := Run(f, Workload{ArrivalRate: 0, Requests: 10}); err == nil {
		t.Fatal("zero rate must error")
	}
	if _, err := Run(f, Workload{ArrivalRate: 1e6, Requests: 0}); err == nil {
		t.Fatal("zero requests must error")
	}
	res := mustRun(t, f, Workload{ArrivalRate: 1e6, Requests: 100, Seed: 3})
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
	// The core runs one trace at a time.
	begin(t, f, 0, 0)
	if _, err := Run(f, Workload{ArrivalRate: 1e6, Requests: 1}); err == nil {
		t.Fatal("Run during an unfinished run must error")
	}
}

func TestSeedZeroMatchesServingDefault(t *testing.T) {
	run := func(seed int64) *Result {
		f := mustNew(t, unpaced(), ReplicaSpec{Pipeline: fastPipeline()})
		return mustRun(t, f, Workload{ArrivalRate: 5e6, Requests: 300, Seed: seed})
	}
	zero, def := run(0), run(42)
	if math.Abs(zero.MeanNS-def.MeanNS) > 1e-9 {
		t.Fatalf("Seed 0 mean %v != DefaultSeed mean %v", zero.MeanNS, def.MeanNS)
	}
}
