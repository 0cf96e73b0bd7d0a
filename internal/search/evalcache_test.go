package search

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// requireIdentical asserts two results carry bit-identical metrics, layer
// by layer and in aggregate (exact float equality — the evaluation engine's
// contract, not an approximation).
func requireIdentical(t *testing.T, tag string, got, want *sim.Result) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil result (got %v, want %v)", tag, got, want)
	}
	checks := []struct {
		name       string
		got, wantV float64
	}{
		{"RUE", got.RUE(), want.RUE()},
		{"Utilization", got.Utilization, want.Utilization},
		{"EnergyNJ", got.EnergyNJ, want.EnergyNJ},
		{"LatencyNS", got.LatencyNS, want.LatencyNS},
		{"AreaUM2", got.AreaUM2, want.AreaUM2},
		{"Energy.ADC", got.Energy.ADC, want.Energy.ADC},
		{"Energy.DAC", got.Energy.DAC, want.Energy.DAC},
		{"Energy.Cell", got.Energy.Cell, want.Energy.Cell},
		{"Energy.ShiftAdd", got.Energy.ShiftAdd, want.Energy.ShiftAdd},
		{"Energy.Buffer", got.Energy.Buffer, want.Energy.Buffer},
		{"Energy.Bus", got.Energy.Bus, want.Energy.Bus},
		{"Energy.Pool", got.Energy.Pool, want.Energy.Pool},
	}
	for _, c := range checks {
		if c.got != c.wantV {
			t.Errorf("%s: %s cached %v != uncached %v", tag, c.name, c.got, c.wantV)
		}
	}
	if got.OccupiedTiles != want.OccupiedTiles {
		t.Errorf("%s: OccupiedTiles %d != %d", tag, got.OccupiedTiles, want.OccupiedTiles)
	}
	if got.ADCConversions != want.ADCConversions {
		t.Errorf("%s: ADCConversions %d != %d", tag, got.ADCConversions, want.ADCConversions)
	}
	if len(got.Layers) != len(want.Layers) {
		t.Fatalf("%s: %d layers != %d", tag, len(got.Layers), len(want.Layers))
	}
	for i := range got.Layers {
		g, w := got.Layers[i], want.Layers[i]
		switch {
		case g.MVMs != w.MVMs, g.ADCConversions != w.ADCConversions,
			g.DACConversions != w.DACConversions, g.CellReads != w.CellReads,
			g.Tiles != w.Tiles, g.GridRows != w.GridRows,
			g.EnergyPJ != w.EnergyPJ, g.LatencyNS != w.LatencyNS,
			g.Energy != w.Energy, g.Shape != w.Shape:
			t.Errorf("%s: layer %d diverges: cached %+v, uncached %+v", tag, i, g, w)
		}
	}
}

// TestEvaluatorBitIdentical prices strategies on the Evaluator and on the
// uncached evalDirect reference under both allocation schemes and asserts
// bit-identical results, and that Materialize attaches a plan without
// changing a metric. The cases are SXB, RXB and random mixed strategies on
// VGG16 plus everything the experiments harness prices: every zoo model on
// every SXB, the Fig. 3 manual strategy, the Fig. 5 single layer, and
// BERT-Base over the LLM table's shapes.
func TestEvaluatorBitIdentical(t *testing.T) {
	type pricing struct {
		tag string
		m   *dnn.Model
		st  accel.Strategy
	}
	homo := func(m *dnn.Model, shapes []xbar.Shape) []pricing {
		var out []pricing
		for _, s := range shapes {
			out = append(out, pricing{m.Name + " " + s.String(), m, accel.Homogeneous(m.NumMappable(), s)})
		}
		return out
	}
	vgg := dnn.VGG16()
	cands := xbar.DefaultCandidates() // SXBs + RXBs
	cases := homo(vgg, cands)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		mixed := make([]int, vgg.NumMappable())
		for j := range mixed {
			mixed[j] = rng.Intn(len(cands))
		}
		cases = append(cases, pricing{fmt.Sprintf("VGG16 mixed %d", i), vgg, mustStrategy(cands, mixed)})
	}
	for _, m := range dnn.Zoo() {
		cases = append(cases, homo(m, xbar.SquareCandidates())...)
	}
	cases = append(cases, pricing{"VGG16 manual", vgg, accel.ManualHetero(16)})
	fig5, err := dnn.NewFlatModel("layer:fig5", 8, 8, 12, []*dnn.Layer{{
		Name: "fig5", Kind: dnn.Conv, K: 3, InC: 12, OutC: 128, Stride: 1, InH: 8, InW: 8,
	}})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, homo(fig5, []xbar.Shape{xbar.Square(64), xbar.Square(128)})...)
	cases = append(cases, homo(dnn.BERTBase(), []xbar.Shape{
		xbar.Square(128), xbar.Square(256), xbar.Square(512), xbar.Rect(288, 256), xbar.Rect(576, 512),
	})...)

	for _, shared := range []bool{false, true} {
		envs := map[*dnn.Model]*Env{}
		for _, c := range cases {
			tag := fmt.Sprintf("shared=%t %s", shared, c.tag)
			env := envs[c.m]
			if env == nil {
				env = testEnv(t, c.m, cands, shared)
				envs[c.m] = env
			}
			want, err := env.evalDirect(c.st, nil)
			if err != nil {
				t.Fatalf("%s: uncached: %v", tag, err)
			}
			got, err := env.Evaluator().EvalStrategy(c.st)
			if err != nil {
				t.Fatalf("%s: cached: %v", tag, err)
			}
			if got.Plan != nil {
				t.Errorf("%s: fast-path result unexpectedly carries a plan", tag)
			}
			requireIdentical(t, tag, got, want)
			full, err := env.Evaluator().Materialize(got, c.st, nil)
			if err != nil {
				t.Fatalf("%s: materialize: %v", tag, err)
			}
			if full.Plan == nil {
				t.Errorf("%s: materialized result has no plan", tag)
			}
			requireIdentical(t, tag+" materialized", full, got)
		}
	}
}

// TestEvaluatorMixedPrecisionBitIdentical covers the EvalSpec path: random
// shape choices combined with random per-layer bit-widths.
func TestEvaluatorMixedPrecisionBitIdentical(t *testing.T) {
	m := dnn.VGG16()
	cands := xbar.DefaultCandidates()
	env := testEnv(t, m, cands, true)
	ev := env.Evaluator()
	n := m.NumMappable()
	rng := rand.New(rand.NewSource(11))
	choices := []int{4, 6, 8}
	for ci := 0; ci < 6; ci++ {
		indices := make([]int, n)
		bits := make(accel.Precision, n)
		for j := range indices {
			indices[j] = rng.Intn(len(cands))
			bits[j] = choices[rng.Intn(len(choices))]
		}
		tag := fmt.Sprintf("mp case=%d", ci)
		want, err := env.evalDirect(mustStrategy(cands, indices), bits)
		if err != nil {
			t.Fatalf("%s: uncached: %v", tag, err)
		}
		got, err := ev.EvalSpec(indices, bits)
		if err != nil {
			t.Fatalf("%s: cached: %v", tag, err)
		}
		requireIdentical(t, tag, got, want)
	}
}

// TestEvaluatorCacheHits asserts repeats are served from the strategy cache
// (same pointer, no extra simulator time) and stats add up.
func TestEvaluatorCacheHits(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:3], true)
	ev := env.Evaluator()
	indices := []int{0, 1, 2, 1}
	first, err := ev.EvalIndices(indices)
	if err != nil {
		t.Fatal(err)
	}
	afterMiss := ev.Stats()
	if afterMiss.Evals != 1 || afterMiss.CacheHits != 0 {
		t.Fatalf("after miss: %+v", afterMiss)
	}
	if afterMiss.SimTime <= 0 {
		t.Fatalf("miss did not accumulate simulator time: %+v", afterMiss)
	}
	second, err := ev.EvalIndices(indices)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("cache hit returned a different result pointer")
	}
	afterHit := ev.Stats()
	if afterHit.Evals != 2 || afterHit.CacheHits != 1 {
		t.Fatalf("after hit: %+v", afterHit)
	}
	if afterHit.SimTime != afterMiss.SimTime {
		t.Fatalf("cache hit billed simulator time: %v -> %v", afterMiss.SimTime, afterHit.SimTime)
	}
	if got := afterHit.HitRate(); got != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", got)
	}
}

// TestEvaluatorOutOfRange asserts index validation matches the uncached path.
func TestEvaluatorOutOfRange(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:3], true)
	ev := env.Evaluator()
	for _, indices := range [][]int{{0, 1, 99, 0}, {-1, 0, 0, 0}} {
		_, wantErr := accel.FromIndices(env.Candidates, indices)
		_, gotErr := ev.EvalIndices(indices)
		if wantErr == nil || gotErr == nil {
			t.Fatalf("indices %v: want errors, got %v / %v", indices, wantErr, gotErr)
		}
		if wantErr.Error() != gotErr.Error() {
			t.Errorf("indices %v: error mismatch: cached %q, uncached %q", indices, gotErr, wantErr)
		}
	}
	// Short strategies are rejected too.
	if _, err := ev.EvalIndices([]int{0}); err == nil {
		t.Fatal("short index vector must error")
	}
}

// TestEvaluatorNoCache asserts the NoCache escape hatch bypasses both cache
// levels and still returns correct (plan-carrying) results.
func TestEvaluatorNoCache(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:3], true)
	env.NoCache = true
	ev := env.Evaluator()
	indices := []int{0, 1, 2, 1}
	a, err := ev.EvalIndices(indices)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.EvalIndices(indices)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("NoCache returned a cached pointer")
	}
	if a.Plan == nil || b.Plan == nil {
		t.Fatal("NoCache results must carry plans")
	}
	st := ev.Stats()
	if st.Evals != 2 || st.CacheHits != 0 {
		t.Fatalf("NoCache stats: %+v", st)
	}
	requireIdentical(t, "nocache", a, b)
}

// TestEvaluatorMaterialize asserts Materialize upgrades a fast-path result
// to a plan-carrying one with identical metrics and updates the cache.
func TestEvaluatorMaterialize(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:3], true)
	ev := env.Evaluator()
	indices := []int{2, 0, 1, 0}
	fast, err := ev.EvalIndices(indices)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := accel.FromIndices(env.Candidates, indices)
	full, err := ev.Materialize(fast, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Plan == nil {
		t.Fatal("materialized result has no plan")
	}
	requireIdentical(t, "materialize", fast, full)
	// The cache now serves the plan-carrying result.
	again, err := ev.EvalIndices(indices)
	if err != nil {
		t.Fatal(err)
	}
	if again != full {
		t.Fatal("cache was not upgraded to the materialized result")
	}
}

// TestEvaluatorConcurrent hammers one evaluator from the worker pool with
// overlapping strategies and checks every result against the uncached path.
// Run under -race this is the engine's thread-safety proof.
func TestEvaluatorConcurrent(t *testing.T) {
	m := tinyModel(t)
	cands := xbar.DefaultCandidates()[:4]
	env := testEnv(t, m, cands, true)
	ev := env.Evaluator()
	n := m.NumMappable()
	const tasks = 64
	genomes := make([][]int, tasks)
	rng := rand.New(rand.NewSource(3))
	for i := range genomes {
		genes := make([]int, n)
		for j := range genes {
			genes[j] = rng.Intn(len(cands))
		}
		genomes[i] = genes
	}
	results := make([]*sim.Result, tasks)
	if err := ParallelFor(tasks, func(i int) error {
		r, err := ev.EvalIndices(genomes[i])
		results[i] = r
		return err
	}); err != nil {
		t.Fatal(err)
	}
	refEnv := testEnv(t, m, cands, true)
	for i, genes := range genomes {
		want, err := refEnv.evalDirect(mustStrategy(cands, genes), nil)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("task %d", i), results[i], want)
	}
	st := ev.Stats()
	if st.Evals != tasks {
		t.Fatalf("evals %d, want %d", st.Evals, tasks)
	}
}

// TestParallelFor covers the pool's contract: full coverage, deterministic
// lowest-index error, and the degenerate sizes.
func TestParallelFor(t *testing.T) {
	if err := ParallelFor(0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	var sum atomic.Int64
	if err := ParallelFor(100, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("sum %d, want 4950", sum.Load())
	}
	err3 := errors.New("err3")
	err7 := errors.New("err7")
	got := ParallelFor(16, func(i int) error {
		switch i {
		case 3:
			return err3
		case 7:
			return err7
		}
		return nil
	})
	if !errors.Is(got, err3) {
		t.Fatalf("got %v, want lowest-index error %v", got, err3)
	}
}

// TestAutoHetStatsAndPlan asserts the search result accounts its
// evaluations, does not bill cache hits as simulator time, and materializes
// the winning strategy's plan.
func TestAutoHetStatsAndPlan(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:3], true)
	opts := DefaultOptions()
	opts.Rounds = 30
	res, err := AutoHet(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestResult.Plan == nil {
		t.Fatal("best result has no plan")
	}
	wantEvals := int64(opts.Rounds + len(env.Candidates))
	if res.Stats.Evals != wantEvals {
		t.Fatalf("evals %d, want %d", res.Stats.Evals, wantEvals)
	}
	if res.Stats.CacheHits == 0 {
		t.Fatal("a 30-round search on a 3^4 space must revisit strategies")
	}
	if res.SimTime != res.Stats.SimTime {
		t.Fatalf("SimTime %v != Stats.SimTime %v", res.SimTime, res.Stats.SimTime)
	}
	if res.Stats.SimTime <= 0 {
		t.Fatal("no simulator time accumulated")
	}
	// A second search over the same env shares the evaluator; its stats
	// must be deltas, not cumulative counters.
	res2, err := AutoHet(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Evals != wantEvals {
		t.Fatalf("second search evals %d, want %d", res2.Stats.Evals, wantEvals)
	}
	if res2.Stats.CacheHits < int64(len(env.Candidates)) {
		t.Fatalf("second search should hit the warm cache, stats %+v", res2.Stats)
	}
}

// TestSearchersReturnPlans asserts every searcher's winner carries a
// concrete plan (downstream consumers dereference it).
func TestSearchersReturnPlans(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:3], true)
	mp, err := MixedPrecision(env, MPOptions{Rounds: 20, Seed: 1, BitChoices: []int{4, 8}, MinMeanBits: 6})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RandomSearch(env, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Greedy(env)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Exhaustive(env)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*sim.Result{
		"mixed": mp.Result, "random": rs.Result,
		"greedy": gr.Result, "exhaustive": ex.Result,
	} {
		if r == nil || r.Plan == nil {
			t.Errorf("%s: winner carries no plan", name)
		}
	}
}
