package search

import (
	"fmt"
	"math"

	"autohet/internal/accel"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// Mixed-precision co-search: jointly choose each layer's crossbar shape AND
// weight bit-width. Fewer bit-planes cut conversions (energy) roughly
// linearly, so the RUE objective rewards narrow weights; the weighted-mean
// bit floor stands in for an accuracy constraint (this repo has no trained
// models to re-validate — see DESIGN.md substitutions — so the constraint
// plays the role HAQ's accuracy evaluator plays). Simulated annealing
// handles the composite discrete space directly.

// MPOptions configures MixedPrecision.
type MPOptions struct {
	Rounds int
	Seed   int64
	// BitChoices are the allowed per-layer widths, e.g. {4, 6, 8}.
	BitChoices []int
	// MinMeanBits is the feasibility floor on the weight-count-weighted
	// mean bit-width (the quantization "budget").
	MinMeanBits float64
}

// DefaultMPOptions allows 4/6/8-bit layers with a mean of at least 6 bits.
func DefaultMPOptions() MPOptions {
	return MPOptions{Rounds: 300, Seed: 1, BitChoices: []int{4, 6, 8}, MinMeanBits: 6}
}

// MPResult is the outcome of a mixed-precision search.
type MPResult struct {
	Strategy  accel.Strategy
	Precision accel.Precision
	Result    *sim.Result
	// MeanBits is the weight-count-weighted mean bit-width.
	MeanBits float64
}

// MixedPrecision runs the joint shape × bit-width annealing search from the
// best homogeneous shape at the widest bit choice.
func MixedPrecision(env *Env, opts MPOptions) (*MPResult, error) {
	switch {
	case opts.Rounds <= 0:
		return nil, fmt.Errorf("search: MP rounds %d", opts.Rounds)
	case len(opts.BitChoices) == 0:
		return nil, fmt.Errorf("search: MP needs bit choices")
	case math.IsNaN(opts.MinMeanBits) || math.IsInf(opts.MinMeanBits, 0):
		return nil, fmt.Errorf("search: MinMeanBits %v must be finite", opts.MinMeanBits)
	}
	widest := 0
	for i, b := range opts.BitChoices {
		if b < 1 || b > env.Cfg.WeightBits {
			return nil, fmt.Errorf("search: MP bit choice %d outside [1,%d]", b, env.Cfg.WeightBits)
		}
		if b > opts.BitChoices[widest] {
			widest = i
		}
	}
	if float64(opts.BitChoices[widest]) < opts.MinMeanBits {
		return nil, fmt.Errorf("search: MinMeanBits %v unreachable with choices %v", opts.MinMeanBits, opts.BitChoices)
	}

	n := env.NumLayers()
	weights := make([]float64, n)
	var totalW float64
	for i, l := range env.Model.Mappable() {
		weights[i] = float64(l.Weights())
		totalW += weights[i]
	}
	meanBits := func(bits accel.Precision) float64 {
		var sum float64
		for i, b := range bits {
			sum += weights[i] * float64(b)
		}
		return sum / totalW
	}
	toBits := func(bits accel.Precision, choice []int) accel.Precision {
		for i, c := range choice {
			bits[i] = opts.BitChoices[c]
		}
		return bits
	}

	engine := env.Evaluator()
	defer trackSearch("mixed", engine)()
	choice := make([]int, n)
	for i := range choice {
		choice[i] = widest
	}
	bits := toBits(make(accel.Precision, n), choice)
	homos, bestIdx, err := homogeneousSweep(n, env.Candidates, func(indices []int) (*sim.Result, error) {
		return engine.EvalSpec(indices, bits)
	}, (*sim.Result).RUE)
	if err != nil {
		return nil, err
	}
	shape := make([]int, n)
	for i := range shape {
		shape[i] = bestIdx
	}

	candBits := make(accel.Precision, n)
	space := annealSpace{shapes: len(env.Candidates), choices: len(opts.BitChoices),
		eval: func(shape, choice []int) (*sim.Result, error) {
			if meanBits(toBits(candBits, choice)) < opts.MinMeanBits {
				return nil, nil
			}
			return engine.EvalSpec(shape, candBits)
		}}
	best, err := space.anneal(opts.Rounds, opts.Seed, shape, choice, homos[bestIdx])
	if err != nil {
		return nil, err
	}
	res := &MPResult{
		Strategy:  mustStrategy(env.Candidates, shape),
		Precision: toBits(make(accel.Precision, n), choice),
	}
	res.MeanBits = meanBits(res.Precision)
	if res.Result, err = engine.Materialize(best, res.Strategy, res.Precision); err != nil {
		return nil, err
	}
	return res, nil
}

func mustStrategy(candidates []xbar.Shape, indices []int) accel.Strategy {
	st, err := accel.FromIndices(candidates, indices)
	if err != nil {
		panic(err) // indices are always produced in range
	}
	return st
}
