package search

import (
	"fmt"
	"time"

	"autohet/internal/accel"
	"autohet/internal/rl"
	"autohet/internal/sim"
)

// Options configures the AutoHet RL search.
type Options struct {
	Rounds int // search episodes (the paper runs 300)
	Agent  rl.AgentConfig
	// UpdateStride runs one minibatch update every UpdateStride layer
	// decisions (1 = every decision; 0 selects 1; negative is an error).
	// Deep models (ResNet152's 156 layers) use a larger stride to bound
	// per-round cost.
	UpdateStride int
	// Progress, when non-nil, receives each round's stats as it finishes.
	Progress func(RoundStats)
	// Objective scores a simulated accelerator; the search maximizes it.
	// Nil means the paper's Eq. 2, R = u/e (RUE). Alternatives let the
	// reward-shaping ablation (DESIGN.md §5) and custom deployments (e.g.
	// latency- or area-aware objectives) reuse the same search.
	Objective func(*sim.Result) float64
}

// DefaultOptions returns the paper's search configuration (300 rounds) with
// agent defaults.
func DefaultOptions() Options {
	return Options{
		Rounds:       300,
		Agent:        rl.DefaultAgentConfig(StateDim),
		UpdateStride: 1,
	}
}

// RoundStats records one search episode.
type RoundStats struct {
	Round    int
	RUE      float64
	Reward   float64 // normalized reward fed to the agent
	Strategy accel.Strategy
	Best     bool // whether this round improved on all previous
}

// Result is the outcome of an AutoHet search.
type Result struct {
	Best       accel.Strategy
	BestResult *sim.Result
	History    []RoundStats
	// RefRUE is the best homogeneous-candidate RUE used to normalize
	// rewards (reward = RUE/RefRUE, keeping the learning signal O(1)
	// while Eq. 2's R = u/e stays the reported metric).
	RefRUE float64
	// TotalTime is the wall-clock search time; SimTime is the portion
	// spent waiting for accelerator feedback (the paper reports 97% of
	// its 49.2-minute search inside the simulator, §4.5). SimTime counts
	// only actual simulation — evaluation-cache hits cost nothing and are
	// not billed (parallel phases sum worker time, so SimTime can exceed
	// TotalTime on multicore runs).
	TotalTime time.Duration
	SimTime   time.Duration
	// Stats are this search's evaluation-engine counters (deltas when the
	// env's evaluator is shared across searches).
	Stats EvalStats
	// Agent is the trained DDPG agent, exposed so callers can persist it
	// (rl.Agent.Save; rl.LoadAgent reads it back).
	Agent *rl.Agent
}

// AutoHet runs the paper's RL search (§3.2): each round the agent assigns a
// crossbar type to every layer in order, the accelerator is simulated, and
// the resulting R = u/e becomes the shared reward of every transition in
// the episode (Eq. 3). Rounds alternate decision and learning stages; the
// best strategy ever simulated is returned.
func AutoHet(env *Env, opts Options) (*Result, error) {
	if opts.Rounds <= 0 {
		return nil, fmt.Errorf("search: rounds %d", opts.Rounds)
	}
	if opts.UpdateStride < 0 {
		return nil, fmt.Errorf("search: update stride %d", opts.UpdateStride)
	}
	if opts.UpdateStride == 0 {
		opts.UpdateStride = 1
	}
	score := opts.Objective
	if score == nil {
		score = func(r *sim.Result) float64 { return r.RUE() }
	}
	if opts.Agent.StateDim != StateDim {
		return nil, fmt.Errorf("search: agent state dim %d, want %d", opts.Agent.StateDim, StateDim)
	}
	if err := opts.Agent.Validate(); err != nil {
		return nil, fmt.Errorf("search: agent config: %w", err)
	}
	agent := rl.NewAgent(opts.Agent)
	n := env.NumLayers()
	ev := env.Evaluator()
	startStats := ev.Stats()
	start := time.Now()

	// Reward normalization reference: the best homogeneous build over the
	// env's own candidates. Homogeneous strategies are points of the C^N
	// search space, so the best of them also seeds the best-so-far — the
	// search can then only improve on it.
	res := &Result{}
	states := make([][]float64, n+1)
	actions := make([]float64, n)
	indices := make([]int, n)

	homos, bestHomo, err := homogeneousSweep(n, env.Candidates, ev.EvalIndices, score)
	if err != nil {
		return nil, err
	}
	res.Best = accel.Homogeneous(n, env.Candidates[bestHomo])
	res.BestResult = homos[bestHomo]
	refRUE := score(homos[bestHomo])
	res.RefRUE = refRUE

	// Seed the experience pool with the homogeneous episodes so the
	// critic sees the reward landscape's anchors before exploration
	// begins. (Homogeneous strategies are points of the C^N space, so the
	// best of them also seeded the best-so-far above.)
	for i, h := range homos {
		action := (float64(i) + 0.5) / float64(len(env.Candidates))
		prevA, prevU := 0.0, 0.0
		for k := 0; k < n; k++ {
			states[k] = env.State(k, prevA, prevU)
			prevA = action
			prevU = env.LayerUtilization(k, i)
		}
		states[n] = states[n-1]
		for k := 0; k < n; k++ {
			agent.Remember(rl.Transition{
				State:     states[k],
				Action:    action,
				Reward:    score(h) / refRUE,
				NextState: states[k+1],
				Done:      k == n-1,
			})
		}
	}

	searchStart := time.Now()
	for round := 0; round < opts.Rounds; round++ {
		// Decision stage: walk the layers. Episode hygiene: the OU noise
		// starts each episode from its mean.
		agent.StartEpisode()
		stageStart := time.Now()
		prevA, prevU := 0.0, 0.0
		for k := 0; k < n; k++ {
			states[k] = env.State(k, prevA, prevU)
			a := agent.ActNoisy(states[k])
			actions[k] = a
			indices[k] = env.DecodeAction(a)
			prevA = a
			prevU = env.LayerUtilization(k, indices[k])
		}
		// Terminal next-state: reuse the last state (done masks it out).
		states[n] = states[n-1]
		stageDecide.AddSince(stageStart)

		// Hardware feedback.
		stageStart = time.Now()
		evalRes, err := ev.EvalIndices(indices)
		stageSimulate.AddSince(stageStart)
		if err != nil {
			return nil, err
		}
		rue := score(evalRes)
		reward := rue / refRUE

		// Learning stage: pool the episode, then minibatch updates.
		stageStart = time.Now()
		for k := 0; k < n; k++ {
			agent.Remember(rl.Transition{
				State:     states[k],
				Action:    actions[k],
				Reward:    reward,
				NextState: states[k+1],
				Done:      k == n-1,
			})
			if k%opts.UpdateStride == 0 {
				agent.Update()
			}
		}
		agent.EndEpisode()
		stageLearn.AddSince(stageStart)

		stats := RoundStats{Round: round, RUE: rue, Reward: reward}
		if res.BestResult == nil || rue > score(res.BestResult) {
			st, _ := accel.FromIndices(env.Candidates, indices)
			res.Best = st
			res.BestResult = evalRes
			stats.Best = true
			stats.Strategy = st
		}
		res.History = append(res.History, stats)
		if opts.Progress != nil {
			opts.Progress(stats)
		}
	}
	// Fast-path results carry no tile plan; give the winner a concrete one
	// (consumers like the programming-cost table need it). Metrics are
	// unchanged — the cached and uncached paths are bit-identical.
	best, err := ev.Materialize(res.BestResult, res.Best, nil)
	if err != nil {
		return nil, err
	}
	res.BestResult = best
	res.TotalTime = time.Since(start)
	res.Stats = ev.Stats().Sub(startStats)
	res.SimTime = res.Stats.SimTime
	res.Agent = agent
	stageSearch.AddSince(searchStart)
	recordSearch("autohet", res.Stats, res.TotalTime)
	return res, nil
}
