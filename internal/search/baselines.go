package search

import (
	"fmt"
	"math/rand"

	"autohet/internal/accel"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// Baseline searchers the evaluation compares AutoHet against.

// Evaluation pairs a strategy with its simulated result.
type Evaluation struct {
	Strategy accel.Strategy
	Result   *sim.Result
}

// BestHomogeneous evaluates one homogeneous accelerator per shape (in
// parallel — the shapes are independent) and returns them all plus the index
// of the RUE-best (the paper's Best-Homo). The results are the Evaluator's
// fast-path results, with Plan == nil; call Materialize on one that needs
// its concrete tile plan.
func BestHomogeneous(env *Env, shapes []xbar.Shape) ([]Evaluation, int, error) {
	if len(shapes) == 0 {
		return nil, -1, fmt.Errorf("search: no shapes")
	}
	n := env.NumLayers()
	engine := env.Evaluator()
	results, best, err := homogeneousSweep(n, shapes, func(indices []int) (*sim.Result, error) {
		return engine.EvalStrategy(mustStrategy(shapes, indices))
	}, (*sim.Result).RUE)
	if err != nil {
		return nil, -1, err
	}
	evals := make([]Evaluation, len(shapes))
	for i, r := range results {
		evals[i] = Evaluation{Strategy: accel.Homogeneous(n, shapes[i]), Result: r}
	}
	return evals, best, nil
}

// Greedy implements the utilization-first mixed-size baseline in the spirit
// of Zhu et al. (ICCAD'18, paper §5): each layer independently takes the
// candidate maximizing its Eq.-4 crossbar utilization, ignoring energy.
// Ties go to the smaller crossbar (fewer wasted cells).
func Greedy(env *Env) (Evaluation, error) {
	n := env.NumLayers()
	indices := make([]int, n)
	for k := 0; k < n; k++ {
		bestIdx, bestU := 0, -1.0
		for i := range env.Candidates {
			u := env.LayerUtilization(k, i)
			cells := env.Candidates[i].Cells()
			better := u > bestU+1e-12 ||
				(u > bestU-1e-12 && cells < env.Candidates[bestIdx].Cells())
			if better {
				bestIdx, bestU = i, u
			}
		}
		indices[k] = bestIdx
	}
	engine := env.Evaluator()
	defer trackSearch("greedy", engine)()
	r, err := engine.EvalIndices(indices)
	if err != nil {
		return Evaluation{}, err
	}
	st, _ := accel.FromIndices(env.Candidates, indices)
	r, err = engine.Materialize(r, st, nil)
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{Strategy: st, Result: r}, nil
}

// RandomSearch samples uniform strategies and keeps the RUE-best. It is the
// sample-efficiency control for the RL agent.
func RandomSearch(env *Env, rounds int, seed int64) (Evaluation, error) {
	if rounds <= 0 {
		return Evaluation{}, fmt.Errorf("search: rounds %d", rounds)
	}
	rng := rand.New(rand.NewSource(seed))
	n := env.NumLayers()
	engine := env.Evaluator()
	defer trackSearch("random", engine)()
	var best Evaluation
	indices := make([]int, n)
	for round := 0; round < rounds; round++ {
		for k := range indices {
			indices[k] = rng.Intn(len(env.Candidates))
		}
		r, err := engine.EvalIndices(indices)
		if err != nil {
			return Evaluation{}, err
		}
		if best.Result == nil || r.RUE() > best.Result.RUE() {
			st, _ := accel.FromIndices(env.Candidates, indices)
			best = Evaluation{Strategy: st, Result: r}
		}
	}
	r, err := engine.Materialize(best.Result, best.Strategy, nil)
	if err != nil {
		return Evaluation{}, err
	}
	best.Result = r
	return best, nil
}

// maxExhaustive bounds C^N enumeration to keep Exhaustive usable only for
// the small verification models it exists for.
const maxExhaustive = 1 << 20

// Exhaustive enumerates every strategy in the C^N space and returns the
// RUE-optimal one. It errors when the space exceeds maxExhaustive — the
// paper's point is precisely that this is infeasible for real models.
func Exhaustive(env *Env) (Evaluation, error) {
	n := env.NumLayers()
	c := len(env.Candidates)
	space := 1
	for i := 0; i < n; i++ {
		space *= c
		if space > maxExhaustive {
			return Evaluation{}, fmt.Errorf("search: exhaustive space %d^%d exceeds %d", c, n, maxExhaustive)
		}
	}
	indices := make([]int, n)
	engine := env.Evaluator()
	var best Evaluation
	for {
		r, err := engine.EvalIndices(indices)
		if err != nil {
			return Evaluation{}, err
		}
		if best.Result == nil || r.RUE() > best.Result.RUE() {
			st, _ := accel.FromIndices(env.Candidates, indices)
			best = Evaluation{Strategy: st, Result: r}
		}
		// Odometer increment.
		k := 0
		for ; k < n; k++ {
			indices[k]++
			if indices[k] < c {
				break
			}
			indices[k] = 0
		}
		if k == n {
			r, err := engine.Materialize(best.Result, best.Strategy, nil)
			if err != nil {
				return Evaluation{}, err
			}
			best.Result = r
			return best, nil
		}
	}
}
