package search

import (
	"fmt"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// Structured-pruning co-search (AUTO-PRUNE-style, the paper's reference
// [27], by the same research group): jointly choose each layer's crossbar
// shape and output-channel keep ratio. Pruning shrinks crossbar grids — and
// thus energy and tiles — so RUE rewards it; a retained-weight floor stands
// in for the accuracy constraint a trained model would provide (DESIGN.md
// substitutions).

// PruneOptions configures PruneSearch.
type PruneOptions struct {
	Rounds int
	Seed   int64
	// KeepChoices are the allowed per-layer keep ratios (each in (0,1]).
	KeepChoices []float64
	// MinKeptWeights is the feasibility floor on the fraction of original
	// weights retained.
	MinKeptWeights float64
}

// DefaultPruneOptions allows 50/75/100% channel retention with at least
// 70% of the original weights kept overall.
func DefaultPruneOptions() PruneOptions {
	return PruneOptions{Rounds: 300, Seed: 1, KeepChoices: []float64{0.5, 0.75, 1.0}, MinKeptWeights: 0.7}
}

// PruneResult is the outcome of a pruning co-search.
type PruneResult struct {
	Keep     []float64
	Strategy accel.Strategy
	Result   *sim.Result
	// KeptWeights is the fraction of original weights retained.
	KeptWeights float64
}

// PruneSearch anneals over the joint shape × keep-ratio space for a
// chain-structured model, from the best homogeneous shape fully dense. Each
// evaluation derives the pruned architecture (dnn.PruneChannels), checks
// the kept-weight floor, maps it under the candidate strategy, and
// simulates. The final layer's logits stay dense.
func PruneSearch(cfg hw.Config, m *dnn.Model, candidates []xbar.Shape, shared bool, opts PruneOptions) (*PruneResult, error) {
	switch {
	case opts.Rounds <= 0:
		return nil, fmt.Errorf("search: prune rounds %d", opts.Rounds)
	case len(opts.KeepChoices) == 0:
		return nil, fmt.Errorf("search: prune needs keep choices")
	case len(candidates) == 0:
		return nil, fmt.Errorf("search: prune needs candidates")
	case !(opts.MinKeptWeights >= 0 && opts.MinKeptWeights <= 1):
		return nil, fmt.Errorf("search: MinKeptWeights %v outside [0,1]", opts.MinKeptWeights)
	}
	full := -1
	for i, k := range opts.KeepChoices {
		if !(k > 0 && k <= 1) {
			return nil, fmt.Errorf("search: keep choice %v outside (0,1]", k)
		}
		if k == 1 && full < 0 {
			full = i
		}
	}
	if full < 0 {
		// The final layer must stay unpruned, so 1.0 must be available.
		return nil, fmt.Errorf("search: keep choices must include 1.0")
	}

	n := m.NumMappable()
	// simulate prunes m to keep and simulates it under the strategy
	// indices. Pruning evaluations build per-variant models, so they bypass
	// the env-level evaluation cache. A keep vector under the floor is
	// rejected (nil result) before any plan is built.
	simulate := func(indices []int, keep []float64) (*sim.Result, error) {
		pruned, err := dnn.PruneChannels(m, keep)
		if err != nil {
			return nil, err
		}
		if keptWeights(m, pruned) < opts.MinKeptWeights {
			return nil, nil
		}
		p, err := accel.BuildPlan(cfg, pruned, mustStrategy(candidates, indices), shared)
		if err != nil {
			return nil, err
		}
		return sim.Simulate(p)
	}
	toKeep := func(keep []float64, choice []int) []float64 {
		for i, c := range choice {
			keep[i] = opts.KeepChoices[c]
		}
		return keep
	}

	choice := make([]int, n)
	for i := range choice {
		choice[i] = full
	}
	dense := toKeep(make([]float64, n), choice)
	homos, bestIdx, err := homogeneousSweep(n, candidates, func(indices []int) (*sim.Result, error) {
		return simulate(indices, dense)
	}, (*sim.Result).RUE)
	if err != nil {
		return nil, err
	}
	shape := make([]int, n)
	for i := range shape {
		shape[i] = bestIdx
	}

	candKeep := make([]float64, n)
	space := annealSpace{shapes: len(candidates), choices: len(opts.KeepChoices), frozenLast: true,
		eval: func(shape, choice []int) (*sim.Result, error) {
			return simulate(shape, toKeep(candKeep, choice))
		}}
	best, err := space.anneal(opts.Rounds, opts.Seed, shape, choice, homos[bestIdx])
	if err != nil {
		return nil, err
	}
	keep := toKeep(make([]float64, n), choice)
	pruned, err := dnn.PruneChannels(m, keep)
	if err != nil {
		return nil, err
	}
	return &PruneResult{
		Keep:        keep,
		Strategy:    mustStrategy(candidates, shape),
		Result:      best,
		KeptWeights: keptWeights(m, pruned),
	}, nil
}

// keptWeights is the fraction of m's weights that pruned retains.
func keptWeights(m, pruned *dnn.Model) float64 {
	return float64(pruned.TotalWeights()) / float64(m.TotalWeights())
}
