package fleet

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"autohet/internal/des"
	"autohet/internal/fault"
	"autohet/internal/obs"
	"autohet/internal/sim"
)

// TestStressConcurrentFleet races a paced Run against a fault injector that
// degrades and recovers two replicas, manual sweeps and a snapshot reader.
// Run under -race this exercises every cross-goroutine edge the driver
// keeps; afterwards the books must balance exactly: the run's outcome
// counts partition the offered requests and agree with the live counters
// and the per-replica tallies.
func TestStressConcurrentFleet(t *testing.T) {
	cfg := Config{
		Config: des.Config{
			Policy:         PowerOfTwo,
			MaxBatch:       4,
			BatchTimeoutNS: 50_000,
			QueueDepth:     64,
			MaxRetries:     2,
			Seed:           5,
		},
		TimeScale: 0.5, // ~15 ms of wall for the 30 ms virtual run
	}
	specs := []ReplicaSpec{
		{Name: "a", Pipeline: &sim.PipelineResult{FillNS: 2e6, IntervalNS: 1e6}},
		{Name: "b", Pipeline: &sim.PipelineResult{FillNS: 2e6, IntervalNS: 1e6}},
		{Name: "c", Pipeline: &sim.PipelineResult{FillNS: 4e6, IntervalNS: 2e6}},
		{Name: "d", Pipeline: &sim.PipelineResult{FillNS: 4e6, IntervalNS: 2e6}},
	}
	f := mustNew(t, cfg, specs...)

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	// Fault injector: degrade and recover two replicas repeatedly mid-run.
	go func() {
		defer aux.Done()
		stuck := &fault.Model{StuckAtZero: 0.05, Seed: 1}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := specs[i%2].Name
			if err := f.InjectFault(name, stuck); err != nil {
				t.Errorf("inject: %v", err)
			}
			time.Sleep(200 * time.Microsecond)
			if err := f.InjectFault(name, nil); err != nil {
				t.Errorf("recover: %v", err)
			}
			f.Sweep()
		}
	}()
	// Snapshot reader racing the run.
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := f.Snapshot()
			if s.Completed < 0 || len(s.Replicas) != len(specs) {
				t.Errorf("implausible snapshot: %+v", s)
			}
			_ = s.String()
			time.Sleep(50 * time.Microsecond)
		}
	}()

	// 80k req/s for 30 ms of virtual time against 3k req/s of capacity:
	// deep queues, shedding and budget misses.
	const n = 2400
	res, err := Run(f, Workload{ArrivalRate: 8e4, Requests: n, BudgetNS: 2e7})
	close(stop)
	aux.Wait()
	if err != nil {
		t.Fatal(err)
	}

	if got := res.Completed + res.Expired + res.Failed + res.Shed + res.Unroutable; got != n {
		t.Fatalf("outcomes %d do not partition the %d offered: %v", got, n, res)
	}
	s := f.Snapshot()
	if s.Submitted != n || s.Completed != int64(res.Completed) || s.Expired != int64(res.Expired) ||
		s.Failed != int64(res.Failed) || s.Shed != int64(res.Shed) || s.Unroutable != int64(res.Unroutable) {
		t.Errorf("counters %v disagree with the run %v", s, res)
	}
	var served, expired int64
	for _, r := range s.Replicas {
		served += r.Served
		expired += r.Expired
		if r.Queued != 0 || r.Outstanding != 0 {
			t.Errorf("replica %s not drained: queued %d outstanding %d", r.Name, r.Queued, r.Outstanding)
		}
	}
	if served != s.Completed || expired != s.Expired {
		t.Errorf("per-replica served/expired %d/%d vs fleet %d/%d", served, expired, s.Completed, s.Expired)
	}
	t.Logf("%v; %d failed, %d retried", res, res.Failed, res.Retried)
}

// TestScrapeDuringRunConcurrent scrapes the Prometheus exposition in a loop
// while a paced Run is in flight — the one concurrency the driver keeps:
// the autohet_fleet_* gauges read replica state under the fleet's lock,
// which Run releases while it sleeps and between events.
func TestScrapeDuringRunConcurrent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Policy = JoinShortestQueue
	cfg.TimeScale = 0.5
	rs := &RepairSpec{Capacity: 0.05, MissRate: 0.5}
	f := mustNew(t, cfg,
		ReplicaSpec{Name: "a", Pipeline: fastPipeline(), Repair: rs},
		ReplicaSpec{Name: "b", Pipeline: slowPipeline(), Repair: rs})
	if err := f.InjectFault("b", &fault.Model{StuckAtZero: 0.02, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	families := []string{"autohet_fleet_requests_total", "autohet_fleet_latency_ns",
		"autohet_fleet_queue_depth", "autohet_fleet_replica_health"}
	scrape := func() string {
		var b bytes.Buffer
		obs.Default.WritePrometheus(&b)
		return b.String()
	}

	stop := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scrapes <- n
				return
			default:
			}
			if text := scrape(); !strings.Contains(text, "autohet_fleet_queue_depth") {
				t.Errorf("scrape %d lacks the queue-depth family", n)
			}
			n++
		}
	}()
	// ~10 ms of virtual time, paced to ~5 ms of wall.
	res, err := Run(f, Workload{ArrivalRate: 2e5, Requests: 2000})
	close(stop)
	n := <-scrapes
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no scrape completed while the run was in flight")
	}
	text := scrape()
	for _, family := range families {
		if !strings.Contains(text, family) {
			t.Errorf("exposition lacks %s", family)
		}
	}
	t.Logf("%d scrapes during %v", n, res)
}
