package search

import (
	"math"
	"testing"

	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/xbar"
)

func TestPruneSearchImprovesRUEWithinBudget(t *testing.T) {
	cfg := hw.DefaultConfig()
	m := dnn.AlexNet()
	cands := xbar.DefaultCandidates()[:3]
	opts := DefaultPruneOptions()
	opts.Rounds = 80
	res, err := PruneSearch(cfg, m, cands, true, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.KeptWeights < opts.MinKeptWeights {
		t.Fatalf("kept weights %v below floor %v", res.KeptWeights, opts.MinKeptWeights)
	}
	// Dense best-homogeneous reference.
	env := testEnv(t, m, cands, true)
	ref := bestHomoRUE(t, env)
	if res.Result.RUE() < ref {
		t.Fatalf("prune search %v below dense best homogeneous %v", res.Result.RUE(), ref)
	}
	// Final layer stays dense.
	if res.Keep[len(res.Keep)-1] != 1 {
		t.Fatalf("logits pruned: %v", res.Keep)
	}
	for i, k := range res.Keep {
		if k != 0.5 && k != 0.75 && k != 1.0 {
			t.Fatalf("layer %d keep %v outside choices", i, k)
		}
	}
}

func TestPruneSearchDeterministic(t *testing.T) {
	cfg := hw.DefaultConfig()
	m := dnn.AlexNet()
	cands := xbar.DefaultCandidates()[:2]
	opts := DefaultPruneOptions()
	opts.Rounds = 40
	a, err := PruneSearch(cfg, m, cands, false, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PruneSearch(cfg, m, cands, false, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.RUE() != b.Result.RUE() || a.KeptWeights != b.KeptWeights {
		t.Fatal("prune search not deterministic per seed")
	}
}

func TestPruneSearchValidation(t *testing.T) {
	cfg := hw.DefaultConfig()
	m := dnn.AlexNet()
	cands := xbar.DefaultCandidates()[:2]
	bad := []PruneOptions{
		{Rounds: 0, KeepChoices: []float64{1}},
		{Rounds: 10},                              // no choices
		{Rounds: 10, KeepChoices: []float64{0}},   // invalid ratio
		{Rounds: 10, KeepChoices: []float64{0.5}}, // missing 1.0
		{Rounds: 10, KeepChoices: []float64{1, math.NaN()}},
		{Rounds: 10, KeepChoices: []float64{1}, MinKeptWeights: 2},
		{Rounds: 10, KeepChoices: []float64{1}, MinKeptWeights: math.NaN()},
	}
	for _, o := range bad {
		if _, err := PruneSearch(cfg, m, cands, false, o); err == nil {
			t.Errorf("options %+v must error", o)
		}
	}
	if _, err := PruneSearch(cfg, m, nil, false, DefaultPruneOptions()); err == nil {
		t.Error("empty candidates must error")
	}
}

func TestPruningShrinksEnergyAndTiles(t *testing.T) {
	// A half-pruned AlexNet on the same strategy must cost less.
	m := dnn.AlexNet()
	keep := make([]float64, m.NumMappable())
	for i := range keep {
		keep[i] = 0.5
	}
	keep[len(keep)-1] = 1
	pruned, err := dnn.PruneChannels(m, keep)
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t, m, xbar.DefaultCandidates()[:1], true)
	prunedEnv := testEnv(t, pruned, xbar.DefaultCandidates()[:1], true)
	dense, err := env.Evaluator().EvalIndices([]int{0, 0, 0, 0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	slim, err := prunedEnv.Evaluator().EvalIndices([]int{0, 0, 0, 0, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if slim.EnergyNJ >= dense.EnergyNJ {
		t.Fatalf("pruning did not cut energy: %v vs %v", slim.EnergyNJ, dense.EnergyNJ)
	}
	if slim.OccupiedTiles > dense.OccupiedTiles {
		t.Fatalf("pruning grew tiles: %d vs %d", slim.OccupiedTiles, dense.OccupiedTiles)
	}
}
