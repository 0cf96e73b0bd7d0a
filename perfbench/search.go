package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/rl"
	"autohet/internal/search"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// searchRounds is the budget of one search. The paper runs 300 rounds; a
// shorter search fits several into one run, so the rounds/s median has
// several samples, and the per-round cost does not depend on the round
// count once the experience pool holds a minibatch.
const searchRounds = 50

// runSearch drives the AutoHet search: DDPG on VGG16 over the default
// SXB+RXB candidates, tile-shared, one fresh env per search so no search
// profits from another's evaluation cache. Searches repeat with seeds
// derived from --seed until the run's time is used.
func runSearch(b *bench) {
	cfg, m := hw.DefaultConfig(), dnn.VGG16()
	rounds, setupReps := searchRounds, 60
	if b.tiny {
		rounds, setupReps = 5, 1
	}

	// Set-up is what a user does before a search (cmd/autohet's order):
	// build the env, then score the homogeneous baselines, which warms the
	// per-layer evaluation memo.
	newEnv := func() (*search.Env, time.Duration, error) {
		start := time.Now()
		env, err := search.NewEnv(cfg, m, xbar.DefaultCandidates(), true)
		if err == nil {
			_, _, err = search.BestHomogeneous(env, env.Candidates)
		}
		return env, time.Since(start), err
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC() // every repetition starts on the same clean heap
		_, d, err := newEnv()
		if err != nil {
			b.op(fmt.Errorf("search set-up: %w", err))
			return
		}
		setups = append(setups, d.Seconds())
	}

	var (
		perSearch         []float64 // rounds/s of each search
		roundMS           []float64 // gaps between Progress callbacks
		learnShare        []float64
		firstEnv          *search.Env
		firstRes          *search.Result
		end               = b.deadline(1)
		objectiveCalled   bool
		roundStart, objAt time.Time
		parentSpan        int
	)
	for i := 0; i == 0 || (!b.tiny && time.Now().Before(end)); i++ {
		env, _, err := newEnv()
		if err != nil {
			b.op(fmt.Errorf("search set-up: %w", err))
			return
		}
		opts := search.DefaultOptions()
		opts.Rounds = rounds
		opts.Agent = rl.DefaultAgentConfig(search.StateDim)
		opts.Agent.Seed = b.seed*1000 + int64(i)
		opts.UpdateStride = m.NumMappable()/16 + 1
		roundStart = time.Time{}
		opts.Progress = func(search.RoundStats) {
			now := time.Now()
			if !roundStart.IsZero() {
				roundMS = append(roundMS, ms(now.Sub(roundStart)))
				if b.traced && objectiveCalled {
					learnShare = append(learnShare, now.Sub(objAt).Seconds()/now.Sub(roundStart).Seconds())
					r := b.spans.add("search.round", parentSpan, roundStart, now)
					b.spans.add("search.decide+simulate", r, roundStart, objAt)
					b.spans.add("search.learn", r, objAt, now)
				}
			}
			roundStart, objectiveCalled = now, false
		}
		if b.traced {
			// The default objective is RUE; wrapping it marks where each
			// round's simulation ends and its learning stage begins.
			opts.Objective = func(r *sim.Result) float64 {
				if !objectiveCalled && !roundStart.IsZero() {
					objAt, objectiveCalled = time.Now(), true
				}
				return r.RUE()
			}
		}
		parentSpan = b.spans.begin("search.AutoHet", 0)
		start := time.Now()
		res, err := search.AutoHet(env, opts)
		wall := time.Since(start)
		b.spans.end(parentSpan)
		b.op(err)
		if err != nil {
			return
		}
		perSearch = append(perSearch, float64(rounds)/wall.Seconds())
		b.check(checkSearch(cfg, m, res))
		if firstRes == nil {
			firstEnv, firstRes = env, res
		}
	}

	b.model["model.best_rue"] = firstRes.BestResult.RUE()
	b.model["model.best_utilization"] = firstRes.BestResult.Utilization
	b.model["model.best_energy_nj"] = firstRes.BestResult.EnergyNJ
	b.model["search.evals"] = float64(firstRes.Stats.Evals)
	b.model["search.cache_hits"] = float64(firstRes.Stats.CacheHits)

	b.samples["setup_s"], b.samples["throughput_per_s"], b.samples["call_ms"] = setups, perSearch, roundMS
	if !b.traced {
		b.setE2E("setup_s", "s", median(setups))
		b.setE2E("throughput_per_s", "1/s", median(perSearch))
		b.setE2E("call_p50_ms", "ms", quantile(roundMS, 0.5))
		return
	}
	b.setLayer("traced.throughput_per_s", "1/s", median(perSearch))
	b.setLayer("traced.call_p90_ms", "ms", quantile(roundMS, 0.9))
	b.setLayer("search.round_ms_p50", "ms", quantile(roundMS, 0.5))
	b.setLayer("search.learn_share", "ratio", median(learnShare))
	b.setLayer("search.evals", "count", float64(firstRes.Stats.Evals))
	b.setLayer("search.cache_hits", "count", float64(firstRes.Stats.CacheHits))
	b.setLayer("model.best_rue", "rue", firstRes.BestResult.RUE())
	profileAgent(b, firstEnv, firstRes)
	profileEvaluator(b, firstEnv, firstRes)
}

// checkSearch re-simulates the winning strategy from scratch, through
// accel.BuildPlan and sim.Simulate, and demands the search's reported RUE
// exactly.
func checkSearch(cfg hw.Config, m *dnn.Model, res *search.Result) error {
	p, err := accel.BuildPlan(cfg, m, res.Best, true)
	if err != nil {
		return fmt.Errorf("search check: rebuild winner: %w", err)
	}
	r, err := sim.Simulate(p)
	if err != nil {
		return fmt.Errorf("search check: re-simulate winner: %w", err)
	}
	if got, want := r.RUE(), res.BestResult.RUE(); got != want {
		return fmt.Errorf("search check: winner re-simulates to RUE %v, search reported %v", got, want)
	}
	return nil
}

// profileAgent times the DDPG agent's two hot calls on the trained agent,
// fed with env states: ActNoisy (one per layer decision) and Update (one
// minibatch step).
func profileAgent(b *bench, env *search.Env, res *search.Result) {
	rng := rand.New(rand.NewSource(b.seed))
	states := make([][]float64, env.NumLayers())
	for k := range states {
		states[k] = env.State(k, rng.Float64(), rng.Float64())
	}
	reps := 200
	if b.tiny {
		reps = 5
	}
	agent := res.Agent
	id := b.spans.begin("rl.Agent.ActNoisy", 0)
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, s := range states {
			agent.ActNoisy(s)
		}
	}
	b.spans.end(id)
	b.setLayer("rl.act_us", "us", us(time.Since(start))/float64(reps*len(states)))
	id = b.spans.begin("rl.Agent.Update", 0)
	start = time.Now()
	for r := 0; r < reps; r++ {
		agent.Update()
	}
	b.spans.end(id)
	b.setLayer("rl.update_us", "us", us(time.Since(start))/float64(reps))
}

// profileEvaluator times Evaluator.EvalIndices on strategies the search
// never simulated (cache misses over a warm per-layer memo) and on its
// winner (a strategy-cache hit). A "novel" strategy that turns out cached
// is skipped, and the hit/miss split is confirmed from the evaluator's
// own counters.
func profileEvaluator(b *bench, env *search.Env, res *search.Result) {
	ev := env.Evaluator()
	rng := rand.New(rand.NewSource(b.seed + 1))
	n, c := env.NumLayers(), len(env.Candidates)
	want := 50
	if b.tiny {
		want = 3
	}
	var miss []float64
	for tries := 0; len(miss) < want && tries < 20*want; tries++ {
		idx := make([]int, n)
		for k := range idx {
			idx[k] = rng.Intn(c)
		}
		before := ev.Stats().CacheHits
		id := b.spans.begin("search.Evaluator.EvalIndices", 0)
		start := time.Now()
		_, err := ev.EvalIndices(idx)
		d := time.Since(start)
		b.spans.end(id)
		if err != nil {
			b.op(fmt.Errorf("search profile: %w", err))
			return
		}
		if ev.Stats().CacheHits == before {
			miss = append(miss, us(d))
		}
	}
	best := make([]int, n)
	for k, s := range res.Best {
		best[k] = slices.Index(env.Candidates, s)
	}
	var hit []float64
	for r := 0; r < 10*want; r++ {
		before := ev.Stats().CacheHits
		start := time.Now()
		_, err := ev.EvalIndices(best)
		d := time.Since(start)
		if err != nil {
			b.op(fmt.Errorf("search profile: %w", err))
			return
		}
		if ev.Stats().CacheHits != before+1 {
			b.check(fmt.Errorf("search profile: the winner's strategy missed the evaluation cache"))
			return
		}
		hit = append(hit, us(d))
	}
	b.setLayer("search.eval_miss_us", "us", median(miss))
	b.setLayer("search.eval_hit_us", "us", median(hit))
}
