package des

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"autohet/internal/chaos"
	"autohet/internal/des/trace"
)

// shardableScenarios are the golden scenarios whose configs are eligible
// for lane sharding (round-robin cluster routing, no admission, resilience,
// chaos or autoscaler).
func shardableScenarios() []goldenScenario {
	var out []goldenScenario
	for _, sc := range goldenScenarios() {
		switch sc.name {
		case "shard_plain", "shard_rr":
			out = append(out, sc)
		}
	}
	return out
}

// runWithWorkers executes one scenario at the given worker count with
// logging on.
func runWithWorkers(t *testing.T, sc goldenScenario, workers int) (*Result, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	cfg := sc.cfg()
	cfg.Workers = workers
	cfg.Log = &buf
	f, err := NewFleet(cfg, sc.specs()...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunTrace(sc.gen(), sc.requests, sc.budgetNS)
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, res)
	return res, &buf
}

// stripWall zeroes the wall-clock-dependent fields so exact Result
// comparison is meaningful across worker counts.
func stripWall(r *Result) *Result {
	c := *r
	c.WallSeconds, c.SpeedupVsWall, c.EventsPerSec, c.Lanes = 0, 0, 0, 0
	return &c
}

// TestParallelIdenticalToSerial is the workers=N exactness contract:
// identical Result structs (modulo wall-clock speed fields) and a merged
// event log byte-identical to the serial log, for every shardable scenario.
func TestParallelIdenticalToSerial(t *testing.T) {
	for _, sc := range shardableScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			serialRes, serialLog := runWithWorkers(t, sc, 1)
			if serialRes.Lanes != 1 {
				t.Fatalf("serial run reports %d lanes", serialRes.Lanes)
			}
			for _, w := range []int{2, 4, 8} {
				res, log := runWithWorkers(t, sc, w)
				if res.Lanes < 2 {
					t.Errorf("workers=%d: parallel path did not engage (lanes=%d)", w, res.Lanes)
				}
				if !reflect.DeepEqual(stripWall(res), stripWall(serialRes)) {
					t.Errorf("workers=%d: Result diverged from serial\nserial:   %+v\nparallel: %+v",
						w, stripWall(serialRes), stripWall(res))
				}
				if !bytes.Equal(log.Bytes(), serialLog.Bytes()) {
					t.Errorf("workers=%d: merged log diverged from serial (%d vs %d bytes); first diff at %d",
						w, log.Len(), serialLog.Len(), firstDiff(log.Bytes(), serialLog.Bytes()))
				}
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestParallelIneligibleFallsBack: configurations with cross-lane coupling
// run serially (and still exactly) even when Workers is set.
func TestParallelIneligibleFallsBack(t *testing.T) {
	for _, sc := range goldenScenarios() {
		sc := sc
		switch sc.name {
		case "mixed", "resilience_storm": // jsq cluster routing, admit, resilience
		case "shard_storm", "shard_scaler": // rr cluster routing under chaos, autoscaler
		default:
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			serialRes, serialLog := runWithWorkers(t, sc, 1)
			res, log := runWithWorkers(t, sc, 4)
			if res.Lanes != 1 {
				t.Fatalf("ineligible config engaged %d lanes", res.Lanes)
			}
			if !reflect.DeepEqual(stripWall(res), stripWall(serialRes)) {
				t.Fatal("workers=4 fallback Result diverged from serial")
			}
			if !bytes.Equal(log.Bytes(), serialLog.Bytes()) {
				t.Fatal("workers=4 fallback log diverged from serial")
			}
		})
	}
}

// mergeSorted equals sort.Float64s of the concatenated runs, bit for bit:
// 2–8 runs, some empty, of unequal lengths, with ties inside and across
// runs. Values are non-negative and NaN-free, as latencies are (the sort
// may order -0 and +0 either way, so they have no bit-exact answer).
func TestMergeSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		runs := make([][]float64, 2+rng.Intn(7))
		var all []float64
		for l := range runs {
			n := 0
			if rng.Intn(4) > 0 {
				n = rng.Intn(60)
			}
			for i := 0; i < n; i++ {
				v := float64(rng.Intn(16)) * 0.25 // a coarse grid: ties
				switch rng.Intn(8) {
				case 0:
					v = rng.ExpFloat64() * 1e6
				case 1:
					v = math.Inf(1)
				}
				runs[l] = append(runs[l], v)
			}
			sort.Float64s(runs[l])
			all = append(all, runs[l]...)
		}
		sort.Float64s(all)
		got := mergeSorted(runs)
		if len(got) != len(all) || cap(got) != len(all) {
			t.Fatalf("trial %d: merged len %d cap %d, want exactly %d", trial, len(got), cap(got), len(all))
		}
		for i := range all {
			if math.Float64bits(got[i]) != math.Float64bits(all[i]) {
				t.Fatalf("trial %d: merged[%d] = %v, sorted concatenation has %v", trial, i, got[i], all[i])
			}
		}
	}
}

// FuzzParallelLanes draws lane-eligible configurations — 2–16 clusters,
// 2–8 workers, a rr/jsq/lo replica policy, batching, queues small enough
// that whole-cluster aborts fire, budgets, heterogeneous replicas — and
// demands the Workers=1 Result and a byte-identical log from the lanes.
// The same configuration with a chaos event or an autoscaler must run on
// one lane.
func FuzzParallelLanes(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(0), uint8(1), uint8(3), uint8(31), uint8(0), uint8(1))
	f.Add(int64(2), uint8(14), uint8(6), uint8(0), uint8(0), uint8(1), uint8(7), uint8(3))
	f.Add(int64(3), uint8(1), uint8(2), uint8(2), uint8(1), uint8(3), uint8(20), uint8(2))
	f.Add(int64(4), uint8(3), uint8(1), uint8(1), uint8(7), uint8(15), uint8(33), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, clusters, workers, policy, batch, depth, budget, load uint8) {
		cfg := DefaultConfig()
		cfg.Clusters = 2 + int(clusters)%15
		cfg.Policy = []Policy{RoundRobin, JoinShortestQueue, LeastOutstanding}[policy%3]
		cfg.ClusterPolicy = RoundRobin
		cfg.MaxBatch = 1 + int(batch)%8
		cfg.QueueDepth = 1 + int(depth)%32
		cfg.Seed = seed
		specs := hetSpecs(cfg.Clusters * (1 + int(uint64(seed)%4)))
		var budgetNS float64
		if b := int(budget) % 40; b > 0 {
			budgetNS = 1000 + 250*float64(b)
		}
		// hetSpecs replicas average ~8.2M req/s of capacity.
		rate := []float64{0.5, 0.8, 1.0, 1.3}[load%4] * 8.2e6 * float64(len(specs))
		run := func(cfg Config) (*Result, []byte) {
			var buf bytes.Buffer
			cfg.Log = &buf
			fl, err := NewFleet(cfg, specs...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fl.RunTrace(trace.Bursty(rate, 1.8, 4e5, seed), 2000, budgetNS)
			if err != nil {
				t.Fatal(err)
			}
			return res, buf.Bytes()
		}
		serial, serialLog := run(cfg)
		cfg.Workers = 2 + int(workers)%7
		par, parLog := run(cfg)
		if !reflect.DeepEqual(stripWall(par), stripWall(serial)) {
			t.Fatalf("workers=%d (lanes=%d): Result diverged from serial\nserial:   %+v\nparallel: %+v",
				cfg.Workers, par.Lanes, stripWall(serial), stripWall(par))
		}
		if !bytes.Equal(parLog, serialLog) {
			t.Fatalf("workers=%d (lanes=%d): log diverged from serial at byte %d",
				cfg.Workers, par.Lanes, firstDiff(parLog, serialLog))
		}
		coupled := cfg
		coupled.Chaos = chaos.Scripted(chaos.Event{AtNS: 1e5, Kind: chaos.Slow, Target: "r0", Value: 2})
		if res, _ := run(coupled); res.Lanes != 1 {
			t.Fatalf("chaos run engaged %d lanes", res.Lanes)
		}
		coupled = cfg
		coupled.Scaler = TargetUtilization{Target: 0.7, Min: 1}
		if res, _ := run(coupled); res.Lanes != 1 {
			t.Fatalf("autoscaled run engaged %d lanes", res.Lanes)
		}
	})
}
