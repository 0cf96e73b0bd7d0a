package search

import (
	"fmt"
	"math"
	"math/rand"

	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// Simulated annealing for the co-searches (MixedPrecision, PruneSearch).
// Both search one state: a crossbar-shape index and a choice index per
// layer (a bit width or a keep ratio). Each round mutates one layer's
// shape or choice, rejects a candidate that breaks the search's budget
// without simulating it, and accepts a worse one with Metropolis
// probability under a geometrically cooled temperature. The acceptance
// scale is normalized by the starting point's RUE.

const (
	annealT0    = 0.3  // initial temperature on the normalized-RUE scale
	annealAlpha = 0.99 // geometric cooling factor per round
)

// annealSpace is one co-search's state space and evaluator.
type annealSpace struct {
	shapes, choices int
	// frozenLast keeps the final layer's choice where it starts.
	frozenLast bool
	// eval simulates a state. It returns a nil result, unsimulated, for a
	// state that breaks the search's budget.
	eval func(shape, choice []int) (*sim.Result, error)
}

// anneal runs rounds of annealing from (shape, choice), whose result start
// is also the normalization reference. On return shape and choice hold the
// best state visited; the result is that state's.
func (s annealSpace) anneal(rounds int, seed int64, shape, choice []int, start *sim.Result) (*sim.Result, error) {
	rng := rand.New(rand.NewSource(seed))
	n := len(shape)
	curShape := append([]int(nil), shape...)
	curChoice := append([]int(nil), choice...)
	candShape := make([]int, n)
	candChoice := make([]int, n)
	cur, best, ref := start, start, start.RUE()
	for round, temp := 0, annealT0; round < rounds; round, temp = round+1, temp*annealAlpha {
		copy(candShape, curShape)
		copy(candChoice, curChoice)
		k := rng.Intn(n)
		if s.shapes > 1 && rng.Intn(2) == 0 {
			candShape[k] = (candShape[k] + 1 + rng.Intn(s.shapes-1)) % s.shapes
		} else if !s.frozenLast || k < n-1 {
			candChoice[k] = rng.Intn(s.choices)
		}
		r, err := s.eval(candShape, candChoice)
		if err != nil {
			return nil, err
		}
		if r == nil {
			continue // infeasible
		}
		delta := (r.RUE() - cur.RUE()) / ref
		if delta >= 0 || rng.Float64() < math.Exp(delta/temp) {
			copy(curShape, candShape)
			copy(curChoice, candChoice)
			cur = r
			if r.RUE() > best.RUE() {
				best = r
				copy(shape, curShape)
				copy(choice, curChoice)
			}
		}
	}
	return best, nil
}

// homogeneousSweep evaluates the homogeneous strategies of an n-layer model
// (every layer on shapes[i]) in parallel and returns every result plus the
// index of the best by score. The pick scans in candidate order with a
// strict >, so it does not depend on scheduling. A best score that is not
// positive is an error: it cannot normalize a search.
func homogeneousSweep(n int, shapes []xbar.Shape, eval func(indices []int) (*sim.Result, error), score func(*sim.Result) float64) ([]*sim.Result, int, error) {
	results := make([]*sim.Result, len(shapes))
	if err := ParallelFor(len(shapes), func(i int) error {
		indices := make([]int, n)
		for j := range indices {
			indices[j] = i
		}
		r, err := eval(indices)
		if err != nil {
			return fmt.Errorf("search: homogeneous %v: %w", shapes[i], err)
		}
		results[i] = r
		return nil
	}); err != nil {
		return nil, -1, err
	}
	best, ref := -1, 0.0
	for i, r := range results {
		if s := score(r); s > ref {
			best, ref = i, s
		}
	}
	if best < 0 {
		return nil, -1, fmt.Errorf("search: best homogeneous score is zero")
	}
	return results, best, nil
}
