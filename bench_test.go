// Package autohet's root benchmark harness: one benchmark per paper table
// and figure (see DESIGN.md §2 for the index), plus the design-choice
// ablation benches from DESIGN.md §5. RL-driven benchmarks scale the search
// with b.N (one benchmark op = one search round) so per-round cost is what
// gets reported; `go run ./cmd/experiments -run all` regenerates the actual
// tables at paper scale.
package autohet

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/experiments"
	"autohet/internal/fleet"
	"autohet/internal/hw"
	"autohet/internal/isa"
	"autohet/internal/quant"
	"autohet/internal/rl"
	"autohet/internal/search"
	"autohet/internal/serving"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

func mustPlan(b *testing.B, cfg hw.Config, m *dnn.Model, st accel.Strategy, shared bool) *accel.Plan {
	b.Helper()
	p, err := accel.BuildPlan(cfg, m, st, shared)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func mustSim(b *testing.B, p *accel.Plan) *sim.Result {
	b.Helper()
	r, err := sim.Simulate(p)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkFig3 evaluates the motivation study: VGG16 on the five
// homogeneous SXB accelerators plus the manual heterogeneous strategy.
func BenchmarkFig3(b *testing.B) {
	cfg := hw.DefaultConfig()
	m := dnn.VGG16()
	strategies := make([]accel.Strategy, 0, 6)
	for _, s := range xbar.SquareCandidates() {
		strategies = append(strategies, accel.Homogeneous(16, s))
	}
	strategies = append(strategies, accel.ManualHetero(16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range strategies {
			mustSim(b, mustPlan(b, cfg, m, st, false))
		}
	}
}

// BenchmarkFig4 measures the empty-crossbar study's allocation sweep:
// VGG16 L1–L4 on 64×64 crossbars across four tile sizes.
func BenchmarkFig4(b *testing.B) {
	suite := experiments.NewSuite(1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := suite.Fig4(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5 measures the single-layer utilization/ADC trade-off
// evaluation, including a functional bit-sliced MVM on each mapping to
// exercise the in-situ computing path the figure describes.
func BenchmarkFig5(b *testing.B) {
	cfg := hw.DefaultConfig()
	layer := &dnn.Layer{Name: "fig5", Kind: dnn.Conv, K: 3, InC: 12, OutC: 128, Stride: 1, Pad: 0, InH: 8, InW: 8}
	m, err := dnn.NewFlatModel("fig5", 8, 8, 12, []*dnn.Layer{layer})
	if err != nil {
		b.Fatal(err)
	}
	w := quant.QuantizeWeights(dnn.SyntheticWeights(m.Mappable()[0], 1))
	in := quant.QuantizeInput(dnn.SyntheticInput(m.Mappable()[0], 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, shape := range []xbar.Shape{xbar.Square(64), xbar.Square(128)} {
			p := mustPlan(b, cfg, m, accel.Homogeneous(1, shape), false)
			mustSim(b, p)
			if _, _, err := sim.ExecuteMVM(cfg, p.Layers[0], w, in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchSearchRounds runs the AutoHet search with b.N rounds so the metric
// is per-round search cost on the given model.
func benchSearchRounds(b *testing.B, m *dnn.Model, cands []xbar.Shape, shared bool) {
	b.Helper()
	env, err := search.NewEnv(hw.DefaultConfig(), m, cands, shared)
	if err != nil {
		b.Fatal(err)
	}
	opts := search.DefaultOptions()
	opts.Rounds = b.N
	opts.Agent = rl.DefaultAgentConfig(search.StateDim)
	opts.UpdateStride = m.NumMappable()/16 + 1
	res, err := search.AutoHet(env, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(res.BestResult.RUE()/res.RefRUE, "RUEgain/op")
}

// BenchmarkFig9 measures the overall-comparison search, per model: one op
// is one RL search round (Fig. 9's AutoHet bars come from 300 such rounds).
func BenchmarkFig9(b *testing.B) {
	for _, m := range dnn.Zoo() {
		b.Run(m.Name, func(b *testing.B) {
			benchSearchRounds(b, m, xbar.DefaultCandidates(), true)
		})
	}
}

// BenchmarkFig10 measures the ablation stages' search configurations on
// VGG16: +He (square candidates), +Hy (hybrid candidates), All (+sharing).
func BenchmarkFig10(b *testing.B) {
	m := dnn.VGG16()
	b.Run("He", func(b *testing.B) { benchSearchRounds(b, m, xbar.SquareCandidates(), false) })
	b.Run("Hy", func(b *testing.B) { benchSearchRounds(b, m, xbar.DefaultCandidates(), false) })
	b.Run("All", func(b *testing.B) { benchSearchRounds(b, m, xbar.DefaultCandidates(), true) })
}

// BenchmarkTable3 measures decoding + evaluation of a fixed per-layer
// strategy table row set (the three VGG16 strategy columns).
func BenchmarkTable3(b *testing.B) {
	cfg := hw.DefaultConfig()
	m := dnn.VGG16()
	strategies := []accel.Strategy{
		accel.Homogeneous(16, xbar.Square(512)), // Base
		accel.ManualHetero(16),                  // a heterogeneous SXB column
		accel.Homogeneous(16, xbar.Rect(576, 512)),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range strategies {
			mustSim(b, mustPlan(b, cfg, m, st, false))
		}
	}
}

// BenchmarkTable4 measures the occupied-tile comparison: the same strategy
// allocated tile-based vs tile-shared on every model.
func BenchmarkTable4(b *testing.B) {
	cfg := hw.DefaultConfig()
	models := dnn.Zoo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range models {
			st := accel.Homogeneous(m.NumMappable(), xbar.Rect(288, 256))
			plain := mustPlan(b, cfg, m, st, false)
			shared := mustPlan(b, cfg, m, st, true)
			if shared.OccupiedTiles() > plain.OccupiedTiles() {
				b.Fatal("sharing increased tiles")
			}
		}
	}
}

// BenchmarkTable5 measures the area/latency evaluation across the six
// Table-5 accelerators.
func BenchmarkTable5(b *testing.B) {
	cfg := hw.DefaultConfig()
	m := dnn.VGG16()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range xbar.SquareCandidates() {
			r := mustSim(b, mustPlan(b, cfg, m, accel.Homogeneous(16, s), false))
			_ = r.AreaUM2
		}
		mustSim(b, mustPlan(b, cfg, m, accel.Homogeneous(16, xbar.Rect(576, 512)), true))
	}
}

// BenchmarkFig11 measures the three sensitivity sweeps' evaluation kernels:
// (a) candidate-ratio mixes, (b) candidate counts, (c) PEs per tile.
func BenchmarkFig11(b *testing.B) {
	m := dnn.VGG16()
	b.Run("a_ratio", func(b *testing.B) {
		cands := append(xbar.SquareCandidates()[:2], xbar.RectCandidates()[2:]...)
		benchSearchRounds(b, m, cands, true)
	})
	b.Run("b_candidates", func(b *testing.B) {
		benchSearchRounds(b, m, xbar.MixedPool()[:8], true)
	})
	b.Run("c_pes", func(b *testing.B) {
		cfg := hw.DefaultConfig()
		cfg.PEsPerTile = 32
		env, err := search.NewEnv(cfg, m, xbar.DefaultCandidates(), true)
		if err != nil {
			b.Fatal(err)
		}
		opts := search.DefaultOptions()
		opts.Rounds = b.N
		if _, err := search.AutoHet(env, opts); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkSearch300 measures one full §4.5-style search round on VGG16
// (the paper reports 49.2 minutes for 300 rounds on MNSIM; one op here is
// one round on this repo's simulator).
func BenchmarkSearch300(b *testing.B) {
	benchSearchRounds(b, dnn.VGG16(), xbar.DefaultCandidates(), true)
}

// BenchmarkAutoHetSearch measures the evaluation engine's per-round cost on
// VGG16, cached vs uncached. The eval/* variants drive an SA-style episode
// stream (one layer mutated per round — the search's actual access pattern)
// straight through the evaluator; the search/* variants run the full RL
// loop with the engine on and off. `cached` must come out ≥3x faster per
// round than `uncached`; the bit-identicality of the two paths is asserted
// in internal/search's tests.
func BenchmarkAutoHetSearch(b *testing.B) {
	m := dnn.VGG16()
	cands := xbar.DefaultCandidates()
	for _, cached := range []bool{false, true} {
		name := map[bool]string{false: "uncached", true: "cached"}[cached]
		b.Run("eval/"+name, func(b *testing.B) {
			env, err := search.NewEnv(hw.DefaultConfig(), m, cands, true)
			if err != nil {
				b.Fatal(err)
			}
			env.NoCache = !cached
			ev := env.Evaluator()
			n := env.NumLayers()
			indices := make([]int, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				indices[i%n] = (indices[i%n] + i/n + 1) % len(cands)
				if _, err := ev.EvalIndices(indices); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(100*ev.Stats().HitRate(), "hit%")
		})
		b.Run("search/"+name, func(b *testing.B) {
			env, err := search.NewEnv(hw.DefaultConfig(), m, cands, true)
			if err != nil {
				b.Fatal(err)
			}
			env.NoCache = !cached
			opts := search.DefaultOptions()
			opts.Rounds = b.N
			opts.UpdateStride = m.NumMappable()/16 + 1
			res, err := search.AutoHet(env, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*res.Stats.HitRate(), "hit%")
		})
	}
}

// --- Design-choice ablations (DESIGN.md §5) ---

// BenchmarkAllocSchemes contrasts Algorithm 1's two-pointer tile sharing
// with the bin-packing-optimal full repack.
func BenchmarkAllocSchemes(b *testing.B) {
	cfg := hw.DefaultConfig()
	m := dnn.ResNet152()
	st := accel.Homogeneous(m.NumMappable(), xbar.Square(64))
	b.Run("two_pointer", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := mustPlan(b, cfg, m, st, true)
			_ = p.OccupiedTiles()
		}
	})
	b.Run("optimal_repack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := mustPlan(b, cfg, m, st, false)
			p.RepackOptimal()
			_ = p.OccupiedTiles()
		}
	})
}

// BenchmarkRewardShaping contrasts the paper's R = u/e objective with a
// utilization-only objective under identical search budgets.
func BenchmarkRewardShaping(b *testing.B) {
	m := dnn.VGG16()
	objectives := map[string]func(*sim.Result) float64{
		"rue":       nil, // default Eq. 2
		"util_only": func(r *sim.Result) float64 { return r.Utilization },
	}
	for name, obj := range objectives {
		b.Run(name, func(b *testing.B) {
			env, err := search.NewEnv(hw.DefaultConfig(), m, xbar.DefaultCandidates(), true)
			if err != nil {
				b.Fatal(err)
			}
			opts := search.DefaultOptions()
			opts.Rounds = b.N
			opts.Objective = obj
			res, err := search.AutoHet(env, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.BestResult.RUE(), "finalRUE/op")
		})
	}
}

// BenchmarkSearchers contrasts the DDPG search with random search and the
// greedy utilization-first baseline at equal evaluation budgets.
func BenchmarkSearchers(b *testing.B) {
	m := dnn.VGG16()
	newEnv := func(b *testing.B) *search.Env {
		env, err := search.NewEnv(hw.DefaultConfig(), m, xbar.DefaultCandidates(), true)
		if err != nil {
			b.Fatal(err)
		}
		return env
	}
	b.Run("ddpg", func(b *testing.B) { benchSearchRounds(b, m, xbar.DefaultCandidates(), true) })
	b.Run("random", func(b *testing.B) {
		ev, err := search.RandomSearch(newEnv(b), b.N, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ev.Result.RUE(), "finalRUE/op")
	})
	b.Run("greedy", func(b *testing.B) {
		env := newEnv(b)
		for i := 0; i < b.N; i++ {
			if _, err := search.Greedy(env); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPipelineBalance measures the PipeLayer-style replication
// balancer (DESIGN.md §5 extension) against the unbalanced pipeline.
func BenchmarkPipelineBalance(b *testing.B) {
	cfg := hw.DefaultConfig()
	m := dnn.VGG16()
	st := accel.Homogeneous(16, xbar.Square(128))
	b.Run("unbalanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := mustPlan(b, cfg, m, st, true)
			r := mustSim(b, p)
			_ = sim.PipelineFromResult(r, 64)
		}
	})
	b.Run("balanced", func(b *testing.B) {
		var speedup float64
		for i := 0; i < b.N; i++ {
			br, err := sim.BalancePipeline(cfg, m, st, true, 50)
			if err != nil {
				b.Fatal(err)
			}
			speedup = br.Speedup()
		}
		b.ReportMetric(speedup, "speedup/op")
	})
}

// BenchmarkProgramming measures the one-time weight-write pricing.
func BenchmarkProgramming(b *testing.B) {
	cfg := hw.DefaultConfig()
	m := dnn.VGG16()
	p := mustPlan(b, cfg, m, accel.Homogeneous(16, xbar.Rect(576, 512)), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.SimulateProgramming(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGCCompile measures Global Controller program compilation and
// binary round-tripping for the deepest model.
func BenchmarkGCCompile(b *testing.B) {
	cfg := hw.DefaultConfig()
	m := dnn.ResNet152()
	p := mustPlan(b, cfg, m, accel.Homogeneous(m.NumMappable(), xbar.Rect(288, 256)), true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := isa.Compile(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := isa.Decode(bytes.NewReader(prog.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServing measures the discrete-event serving simulation at 80%
// load on the pipelined AlexNet accelerator.
func BenchmarkServing(b *testing.B) {
	cfg := hw.DefaultConfig()
	p := mustPlan(b, cfg, dnn.AlexNet(), accel.Homogeneous(8, xbar.Square(128)), true)
	pr, err := sim.SimulateBatch(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	w := serving.Workload{ArrivalRate: 0.8 * 1e9 / pr.IntervalNS, Requests: 1000, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := serving.Serve(pr, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetThroughput measures the paced serving runtime's request
// throughput (dispatch + batching + accounting, not accelerator time)
// across replica counts and dispatch policies. Fleets run at TimeScale 1e-9,
// which never sleeps, so the number reported is the runtime's own overhead
// ceiling in requests/second.
func BenchmarkFleetThroughput(b *testing.B) {
	pr := &sim.PipelineResult{FillNS: 1000, IntervalNS: 100}
	for _, replicas := range []int{1, 4, 16} {
		for _, policy := range []fleet.Policy{fleet.RoundRobin, fleet.JoinShortestQueue, fleet.PowerOfTwo} {
			b.Run(fmt.Sprintf("replicas_%d/%s", replicas, policy), func(b *testing.B) {
				cfg := fleet.DefaultConfig()
				cfg.Policy = policy
				cfg.TimeScale = 1e-9 // never sleeps
				cfg.QueueDepth = 4096
				specs := make([]fleet.ReplicaSpec, replicas)
				for i := range specs {
					specs[i] = fleet.ReplicaSpec{Pipeline: pr}
				}
				f, err := fleet.New(cfg, specs...)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				start := time.Now()
				// One request per iteration, 100 ns apart on average.
				res, err := fleet.Run(f, fleet.Workload{ArrivalRate: 1e7, Requests: b.N})
				elapsed := time.Since(start).Seconds()
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if elapsed > 0 {
					b.ReportMetric(float64(res.Completed)/elapsed, "req/s")
				}
				if res.Completed == 0 {
					b.Fatal("no requests completed")
				}
			})
		}
	}
}
