package des

// Performance contracts for the pooled typed-event engine. Three properties
// are load-bearing enough to assert in the tier-1 suite:
//
//  1. The steady-state fleet loop is allocation-free per event. Typed events
//     carry their operands in the pooled arena, logf call sites are gated
//     behind f.logging (varargs boxing alone used to cost ~6 allocs/event),
//     and the scratch buffers amortize — so a 100k-request run must stay
//     under a small allocs/event ceiling regardless of GOGC timing.
//  2. Engine.Now/Events/Pending are safe to read from other goroutines
//     while a run is in flight (metrics exposition does exactly that); the
//     hammer test makes `go test -race` the enforcement.
//  3. The 4-ary pooled heap with generation-checked cancellation pops in
//     exactly (time, FIFO-seq) order — fuzzed against a sorted-slice model.

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
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

// BenchmarkEngineRaw is the bare arena/heap cycle: schedule one typed event,
// pop it, re-arm — the floor every fleet event pays.
func BenchmarkEngineRaw(b *testing.B) {
	e := New()
	remaining := b.N
	lcg := uint64(0x9e3779b97f4a7c15)
	e.SetHandler(func(kind uint16, i int64, x float64, p any) {
		if remaining == 0 {
			return
		}
		remaining--
		lcg = lcg*6364136223846793005 + 1442695040888963407
		e.ScheduleEvent(float64(lcg>>40), 1, 0, 0, nil)
	})
	b.ReportAllocs()
	b.ResetTimer()
	// Seed a small pending set so the heap has real depth to sift.
	for i := 0; i < 64 && remaining > 0; i++ {
		remaining--
		e.ScheduleEvent(float64(i), 1, 0, 0, nil)
	}
	e.Run()
	b.ReportMetric(float64(e.Events())/b.Elapsed().Seconds(), "events/sec")
}

// TestEngineConcurrentReads hammers the read-side API from other goroutines
// while the event loop runs. Run under -race this enforces that Now, Events
// and Pending are genuinely atomic — the contract metrics exposition relies
// on when it samples a fleet mid-run.
func TestEngineConcurrentReads(t *testing.T) {
	e := New()
	const total = 200000
	fired := 0
	e.SetHandler(func(kind uint16, i int64, x float64, p any) {
		fired++
		if fired < total {
			e.ScheduleEvent(1+float64(fired%17), 1, 0, 0, nil)
		}
	})
	e.ScheduleEvent(1, 1, 0, 0, nil)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastNow float64
			var lastEvents int64
			for {
				select {
				case <-done:
					return
				default:
				}
				if now := e.Now(); now < lastNow {
					t.Errorf("Now went backwards: %g after %g", now, lastNow)
					return
				} else {
					lastNow = now
				}
				if ev := e.Events(); ev < lastEvents {
					t.Errorf("Events went backwards: %d after %d", ev, lastEvents)
					return
				} else {
					lastEvents = ev
				}
				_ = e.Pending()
			}
		}()
	}
	e.Run()
	close(done)
	wg.Wait()
	if fired != total {
		t.Fatalf("fired %d events, want %d", fired, total)
	}
}

// FuzzEventHeap drives the pooled 4-ary heap + free-list + generation
// machinery with arbitrary schedule/cancel sequences and checks the pop
// order against a naive sorted-slice model: stable sort by time, FIFO among
// ties. Cancels recycle arena slots mid-sequence, so stale-handle reuse is
// exercised on every input that mixes the two ops.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{0, 10, 1, 10, 2, 5, 3, 0, 0, 7}, int64(1))
	f.Add([]byte{0, 1, 0, 1, 0, 1, 3, 0, 3, 0}, int64(42))
	f.Add([]byte{2, 255, 1, 0, 3, 3, 2, 128, 0, 128}, int64(7))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
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
		var model []ref
		handles := map[int64]Handle{}
		var nextID int64
		for k := 0; k+1 < len(data); k += 2 {
			if data[k]%4 == 3 {
				// Cancel a random live event (no-op on an empty model).
				if len(model) > 0 {
					j := rng.Intn(len(model))
					victim := model[j]
					if !e.Cancel(handles[victim.id]) {
						t.Fatalf("cancel of live event %d failed", victim.id)
					}
					delete(handles, victim.id)
					model = append(model[:j], model[j+1:]...)
				}
				continue
			}
			// Coarse times (half-ns grid over a 128ns span) force plenty of
			// exact ties, which is where FIFO order earns its keep.
			at := float64(data[k+1]) * 0.5
			handles[nextID] = e.AtEvent(at, 1, nextID, 0, nil)
			model = append(model, ref{at: at, id: nextID})
			nextID++
		}
		e.Run()
		sort.SliceStable(model, func(a, b int) bool { return model[a].at < model[b].at })
		if len(got) != len(model) {
			t.Fatalf("popped %d events, model has %d", len(got), len(model))
		}
		for i := range model {
			if got[i] != model[i].id {
				t.Fatalf("pop %d: got event %d, model says %d", i, got[i], model[i].id)
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("%d events still pending after drain", e.Pending())
		}
	})
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
