package search

import (
	"math"
	"testing"

	"autohet/internal/xbar"
)

func TestMixedPrecisionBeatsFullPrecision(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:3], true)
	// Full-precision baseline: best homogeneous at 8 bits.
	ref := bestHomoRUE(t, env)
	opts := DefaultMPOptions()
	opts.Rounds = 120
	res, err := MixedPrecision(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Narrower weights cut conversions, so feasible mixed precision must
	// strictly improve RUE over the 8-bit best homogeneous.
	if res.Result.RUE() <= ref {
		t.Fatalf("mixed precision %v did not beat 8-bit best homogeneous %v", res.Result.RUE(), ref)
	}
	if res.MeanBits < opts.MinMeanBits {
		t.Fatalf("mean bits %v below floor %v", res.MeanBits, opts.MinMeanBits)
	}
	for i, b := range res.Precision {
		if b != 4 && b != 6 && b != 8 {
			t.Fatalf("layer %d assigned bits %d outside choices", i, b)
		}
	}
	if err := res.Strategy.Validate(env.Model); err != nil {
		t.Fatal(err)
	}
}

func TestMixedPrecisionHonorsBudget(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:2], false)
	opts := DefaultMPOptions()
	opts.Rounds = 60
	opts.MinMeanBits = 8 // only uniform 8-bit is feasible
	res, err := MixedPrecision(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range res.Precision {
		if b != 8 {
			t.Fatalf("layer %d bits %d despite 8-bit floor", i, b)
		}
	}
	if res.MeanBits != 8 {
		t.Fatalf("mean bits %v", res.MeanBits)
	}
}

func TestMixedPrecisionDeterministic(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:2], false)
	opts := DefaultMPOptions()
	opts.Rounds = 40
	a, err := MixedPrecision(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MixedPrecision(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.RUE() != b.Result.RUE() || a.MeanBits != b.MeanBits {
		t.Fatal("mixed-precision search not deterministic per seed")
	}
}

func TestMixedPrecisionValidation(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:2], false)
	bad := []MPOptions{
		{Rounds: 0, BitChoices: []int{8}},
		{Rounds: 10},                                       // no choices
		{Rounds: 10, BitChoices: []int{9}},                 // over WeightBits
		{Rounds: 10, BitChoices: []int{0}},                 // under 1
		{Rounds: 10, BitChoices: []int{4}, MinMeanBits: 6}, // unreachable floor
		{Rounds: 10, BitChoices: []int{8}, MinMeanBits: math.NaN()},
		{Rounds: 10, BitChoices: []int{8}, MinMeanBits: math.Inf(-1)},
	}
	for _, o := range bad {
		if _, err := MixedPrecision(env, o); err == nil {
			t.Errorf("options %+v must error", o)
		}
	}
}

func TestEvalSpecPrecisionScalesEnergy(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:2], false)
	n := env.NumLayers()
	indices := make([]int, n)
	full, err := env.Evaluator().EvalSpec(indices, nil)
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]int, n)
	for i := range bits {
		bits[i] = 4
	}
	half, err := env.Evaluator().EvalSpec(indices, bits)
	if err != nil {
		t.Fatal(err)
	}
	// 4-bit weights activate half the bit planes → about half the ADC
	// energy (non-plane components shift the ratio a little).
	ratio := half.EnergyNJ / full.EnergyNJ
	if ratio < 0.4 || ratio > 0.7 {
		t.Fatalf("4-bit energy ratio %v, want ≈0.5", ratio)
	}
	if half.ADCConversions*2 != full.ADCConversions {
		t.Fatalf("ADC conversions %d vs %d, want exactly half", half.ADCConversions, full.ADCConversions)
	}
	// Utilization and area are bit-width independent (cells still hold the
	// full PE).
	if half.Utilization != full.Utilization {
		t.Fatal("precision changed utilization")
	}
}

// With one crossbar candidate the annealer only moves choices: every layer
// keeps the single shape.
func TestAnnealSingleCandidate(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:1], false)
	opts := DefaultMPOptions()
	opts.Rounds = 60
	res, err := MixedPrecision(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Strategy {
		if s != env.Candidates[0] {
			t.Fatalf("layer %d on %v, want the single candidate %v", i, s, env.Candidates[0])
		}
	}
	if res.Result.RUE() < bestHomoRUE(t, env) {
		t.Fatalf("annealed RUE %v below its homogeneous start", res.Result.RUE())
	}
}

// With a single bit width the annealer searches shapes alone, and on a
// model small enough to enumerate it gets within 10% of the optimum.
func TestAnnealApproachesOptimum(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:3], true)
	optimal, err := Exhaustive(env)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MixedPrecision(env, MPOptions{Rounds: 200, Seed: 1, BitChoices: []int{env.Cfg.WeightBits}})
	if err != nil {
		t.Fatal(err)
	}
	if ratio := res.Result.RUE() / optimal.Result.RUE(); ratio < 0.9 {
		t.Fatalf("annealing reached only %.1f%% of optimum", 100*ratio)
	}
}
