package des

// Performance contracts for the pooled typed-event engine. Three properties
// are load-bearing enough to assert in the tier-1 suite:
//
//  1. The steady-state fleet loop is allocation-free per event. Typed events
//     carry their operands in the pooled arena, logf call sites are gated
//     behind f.logging (varargs boxing alone used to cost ~6 allocs/event),
//     and the scratch buffers amortize — so a 100k-request run must stay
//     under a small allocs/event ceiling regardless of GOGC timing.
//  2. An event slot is one 64-byte cache line (TestEventSlotSize).
//  3. The calendar queue threaded through the arena, with generation-checked
//     cancellation, fires in exactly (time, FIFO-seq) order through every
//     interleaving of schedules, pops, peeks, horizons, cancels and bucket
//     resizes — fuzzed against a sorted-slice model.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"autohet/internal/des/trace"
)

// steadyScenario is the fixed workload the allocation ceiling and the
// throughput benchmark are measured on: 100 replicas in 8 clusters under a
// bursty trace at ~0.7 utilization, queue-aware policies both levels.
func steadyScenario(tb testing.TB) (*Fleet, trace.Generator) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Policy = "jsq"
	cfg.ClusterPolicy = "jsq"
	cfg.Clusters = 8
	cfg.QueueDepth = 64
	f, err := NewFleet(cfg, homogeneous(100, 5e7, 1e7)...)
	if err != nil {
		tb.Fatal(err)
	}
	return f, trace.Bursty(1000*0.7*100/5, 1.8, 50e6, 7)
}

// flatScenario is the perfbench fleet-flat shape: 1k replicas in one
// cluster, jsq, 4 pipeline stages with 0.1 ms hops, bursty trace at ~0.7
// utilization. Every pick is over one stage's 250 replicas.
func flatScenario(tb testing.TB) (*Fleet, trace.Generator) {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Policy = "jsq"
	cfg.QueueDepth = 64
	cfg.Shards = 4
	cfg.StageTransferNS = []float64{1e5, 1e5, 1e5}
	f, err := NewFleet(cfg, homogeneous(1000, 5e7, 1e7)...)
	if err != nil {
		tb.Fatal(err)
	}
	return f, trace.Bursty(0.7*1000*100/4, 1.8, 50e6, 7)
}

// steadyShapes are the fleets the allocation ceiling and the throughput
// benchmark run on.
var steadyShapes = []struct {
	name  string
	build func(testing.TB) (*Fleet, trace.Generator)
}{
	{"clustered", steadyScenario},
	{"flat", flatScenario},
}

// TestSteadyStateAllocsPerEvent pins the tentpole's allocation contract:
// ~0 allocs/event in steady state. The ceiling of 0.05 leaves room for the
// amortized growth of latencies/windows/queue rings (measured: ~0.002).
func TestSteadyStateAllocsPerEvent(t *testing.T) {
	for _, sh := range steadyShapes {
		t.Run(sh.name, func(t *testing.T) {
			f, gen := sh.build(t)
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			res, err := f.RunTrace(gen, 100000, 0)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			allocs := float64(m1.Mallocs-m0.Mallocs) / float64(res.Events)
			t.Logf("events=%d mallocs=%d allocs/event=%.4f", res.Events, m1.Mallocs-m0.Mallocs, allocs)
			if allocs > 0.05 {
				t.Fatalf("steady-state loop allocates: %.4f allocs/event (ceiling 0.05)", allocs)
			}
		})
	}
}

// BenchmarkFleetSteadyState is the end-to-end hot path: full dispatch +
// batching + service recurrence, reported in events/sec.
func BenchmarkFleetSteadyState(b *testing.B) {
	const requests = 20000
	for _, sh := range steadyShapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				f, gen := sh.build(b)
				res, err := f.RunTrace(gen, requests, 0)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}

// BenchmarkEngineRaw is the bare arena/queue cycle: pop one typed event,
// schedule its successor — the floor every fleet event pays — with a
// fixed number of events pending. ns/op is ns per event. The cases hold
// exponential delays (1 ms mean) at four depths, a coarse grid where
// hundreds of events tie at each instant, and 10 far-future events that
// never fire among 10k near ones.
func BenchmarkEngineRaw(b *testing.B) {
	exp := func(lcg *uint64) float64 {
		*lcg = *lcg*6364136223846793005 + 1442695040888963407
		return -math.Log(float64(*lcg>>11+1)/(1<<53)) * 1e6
	}
	grid := func(lcg *uint64) float64 {
		*lcg = *lcg*6364136223846793005 + 1442695040888963407
		return float64(1+*lcg>>61) * 1e6
	}
	cases := []struct {
		name       string
		depth, far int
		delay      func(*uint64) float64
	}{
		{"exp/depth=64", 64, 0, exp},
		{"exp/depth=1k", 1000, 0, exp},
		{"exp/depth=10k", 10_000, 0, exp},
		{"exp/depth=100k", 100_000, 0, exp},
		{"ties/depth=10k", 10_000, 0, grid},
		{"far/depth=10k", 10_000, 10, exp},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			e := New()
			lcg := uint64(0x9e3779b97f4a7c15)
			remaining := b.N
			e.SetHandler(func(kind uint16, i int64, x float64, p any) {
				if remaining == 0 {
					e.Halt()
					return
				}
				remaining--
				e.ScheduleEvent(c.delay(&lcg), 1, 0, 0, nil)
			})
			for i := 0; i < c.depth; i++ {
				e.ScheduleEvent(c.delay(&lcg), 1, 0, 0, nil)
			}
			for i := 0; i < c.far; i++ {
				e.AtEvent(1e15*float64(i+1), 1, 0, 0, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			e.Run()
		})
	}
}

// FuzzEventHeap drives the calendar queue, the free list and the
// generation machinery with arbitrary interleavings of schedules, pops,
// peeks, horizons (PeekAt + Step up to a time) and cancels, and checks every firing against a naive
// sorted-slice model ordered by (time, schedule order). Schedules land at
// Now, at tiny offsets, on a coarse grid of exact ties, at 1e15 and at
// +Inf, so buckets fill, empty, resize and alias across calendar years;
// cancels hit live events and stale handles whose slots were recycled.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 10, 1, 10, 2, 5, 3, 0, 0, 7}, int64(1))
	f.Add([]byte{0, 1, 0, 1, 0, 1, 3, 0, 3, 0}, int64(42))
	f.Add([]byte{2, 255, 1, 0, 3, 3, 2, 128, 0, 128}, int64(7))
	f.Add([]byte{4, 9, 5, 0, 8, 3, 9, 1, 2, 7, 10, 40, 11, 0, 6, 2, 9, 0, 10, 255}, int64(3))
	f.Add([]byte{7, 0, 6, 0, 2, 1, 2, 2, 9, 0, 9, 0, 11, 1, 5, 1, 9, 0, 8, 0}, int64(5))
	f.Fuzz(checkQueue)
}

// checkQueue runs one FuzzEventHeap input: data is a sequence of
// (operation, argument) byte pairs, and seed picks the cancel victims.
func checkQueue(t *testing.T, data []byte, seed int64) {
	type ref struct {
		at float64
		id int64
	}
	e := New()
	var got []int64
	e.SetHandler(func(kind uint16, i int64, x float64, p any) {
		got = append(got, i)
	})
	rng := rand.New(rand.NewSource(seed))
	var (
		model   []ref // pending events, unordered
		now     float64
		nextID  int64
		handles = map[int64]Handle{}
		dead    []Handle // handles of fired and cancelled events
	)
	earliest := func() int {
		m := 0
		for j, r := range model {
			if r.at < model[m].at || r.at == model[m].at && r.id < model[m].id {
				m = j
			}
		}
		return m
	}
	// fire removes the model's earliest event and checks that the
	// engine fired the same one next.
	fire := func() {
		t.Helper()
		m := earliest()
		want := model[m]
		model = append(model[:m], model[m+1:]...)
		if len(got) == 0 || got[0] != want.id {
			t.Fatalf("fired %v, model's next is event %d at %g", got, want.id, want.at)
		}
		got = got[1:]
		now = want.at
		dead = append(dead, handles[want.id])
		delete(handles, want.id)
	}
	schedule := func(at float64) {
		if !(at >= now) {
			at = now
		}
		handles[nextID] = e.AtEvent(at, 1, nextID, 0, nil)
		model = append(model, ref{at: at, id: nextID})
		nextID++
	}
	for k := 0; k+1 < len(data); k += 2 {
		arg := data[k+1]
		switch data[k] % 12 {
		case 0: // at Now
			schedule(now)
		case 1: // a tiny offset
			schedule(now + float64(arg)*1e-7)
		case 2: // a coarse grid: exact ties across schedules
			schedule(math.Ceil(now/64)*64 + 64*float64(arg%4))
		case 3: // a half-ns grid over a 128 ns span
			schedule(float64(arg) * 0.5)
		case 4:
			schedule(1e15 + float64(arg))
		case 5:
			schedule(math.Inf(1))
		case 6, 7:
			if len(model) == 0 {
				if e.Step() {
					t.Fatal("Step fired on an empty queue")
				}
				continue
			}
			if !e.Step() {
				t.Fatalf("Step found nothing, model holds %d", len(model))
			}
			fire()
		case 8:
			at, ok := e.PeekAt()
			if ok != (len(model) > 0) || ok && at != model[earliest()].at {
				t.Fatalf("PeekAt = %g, %t; model holds %d", at, ok, len(model))
			}
		case 9: // fire every event at or before a horizon a few grid steps ahead
			h := now + 16*float64(arg%8)
			for at, ok := e.PeekAt(); ok && at <= h; at, ok = e.PeekAt() {
				e.Step()
			}
			for len(model) > 0 && model[earliest()].at <= h {
				fire()
			}
			if len(got) != 0 {
				t.Fatalf("horizon %g fired %d events past the model", h, len(got))
			}
			if e.Now() != now {
				t.Fatalf("Now %g after horizon %g, model %g", e.Now(), h, now)
			}
		case 10: // cancel a live event
			if len(model) == 0 {
				continue
			}
			j := rng.Intn(len(model))
			victim := model[j]
			h := handles[victim.id]
			if !e.Cancel(h) {
				t.Fatalf("cancel of live event %d failed", victim.id)
			}
			model = append(model[:j], model[j+1:]...)
			dead = append(dead, h)
			delete(handles, victim.id)
		case 11: // cancel a stale handle
			if len(dead) == 0 {
				continue
			}
			if h := dead[rng.Intn(len(dead))]; e.Active(h) || e.Cancel(h) {
				t.Fatal("stale handle is active or cancellable")
			}
		}
		if e.Pending() != len(model) {
			t.Fatalf("op %d: %d pending, model holds %d", k/2, e.Pending(), len(model))
		}
	}
	// Drain: the rest fire in model order.
	if n := e.Run(); n != int64(len(model)) {
		t.Fatalf("drain fired %d events, model holds %d", n, len(model))
	}
	for len(model) > 0 {
		fire()
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after drain", e.Pending())
	}
}

// FuzzPickIndex drives the JSQ and LO tournament trees with arbitrary
// queue pushes and pops, in-flight changes, health values (zero,
// subnormal, and values that tie scores) and dispatchability flips, over
// groups of 1, powers of two and sizes in between, as clusters or as
// pipeline stages. After every op each group's indexed pick must equal
// the linear scan over its dispatchable replicas.
func FuzzPickIndex(f *testing.F) {
	f.Add(uint8(1), uint8(1), false, []byte{0, 0, 3, 4, 2, 3, 1, 0})
	f.Add(uint8(8), uint8(1), false, []byte{0, 1, 0, 1, 0, 2, 3, 5, 3, 14, 4, 2, 1, 1, 2, 9})
	f.Add(uint8(17), uint8(2), false, []byte{3, 0, 3, 1, 3, 2, 0, 3, 0, 3, 5, 16, 2, 7, 1, 3, 4, 9})
	f.Add(uint8(64), uint8(4), true, []byte{0, 5, 0, 21, 3, 22, 3, 38, 0, 38, 4, 5, 5, 21, 2, 40, 1, 5})
	healths := []float64{1, 0.5, 0.25, 0.75, 0, 5e-324, 1e-308, 1e-300, 0.5}
	f.Fuzz(func(t *testing.T, size, groups uint8, sharded bool, ops []byte) {
		n := int(size)%70 + 1
		g := int(groups)%4 + 1
		if g > n {
			g = n
		}
		for _, policy := range []Policy{JoinShortestQueue, LeastOutstanding} {
			cfg := DefaultConfig()
			cfg.Policy = policy
			if sharded && g > 1 {
				cfg.Shards = g
			} else {
				cfg.Clusters = g
			}
			fl, err := NewFleet(cfg, homogeneous(n, 2000, 100)...)
			if err != nil {
				t.Fatal(err)
			}
			check := func(step int) {
				t.Helper()
				for s := 0; s < g; s++ {
					var got *simReplica
					var rs []*simReplica
					if cfg.Shards > 1 {
						got, rs = fl.pickStage(s), fl.stageReplicas(s)
					} else {
						got, rs = fl.pickInCluster(fl.clusters[s]), fl.clusters[s].replicas
					}
					if want := linearPick(fl, rs); got != want {
						t.Fatalf("%s, %d replicas in %d groups, op %d, group %d: indexed pick %v, scan %v",
							policy, n, g, step, s, pickName(got), pickName(want))
					}
				}
			}
			check(-1)
			for k := 0; k+1 < len(ops); k += 2 {
				r := fl.replicas[int(ops[k+1])%n]
				switch ops[k] % 6 {
				case 0:
					r.queue.push(simReq{})
					fl.rescore(r)
				case 1:
					if r.queue.n > 0 {
						r.queue.pop()
						fl.rescore(r)
					}
				case 2:
					r.inFlight = int(ops[k+1]) % 5
					fl.rescoreLoad(r)
				case 3:
					r.health = healths[int(ops[k+1])%len(healths)]
					fl.refreshDispatch()
				case 4:
					r.active = !r.active
					fl.refreshDispatch()
				case 5:
					r.crashed = !r.crashed
					fl.refreshDispatch()
				}
				check(k / 2)
			}
		}
	})
}

// linearPick is the unindexed replica pick: the policy's scan over the
// dispatchable members of rs.
func linearPick(f *Fleet, rs []*simReplica) *simReplica {
	var cands []*simReplica
	for _, r := range rs {
		if r.dispatchable() {
			cands = append(cands, r)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	var rr uint64
	return cands[f.choose(f.cfg.Policy, &rr, cands, nil)]
}

func pickName(r *simReplica) string {
	if r == nil {
		return "none"
	}
	return r.name
}
