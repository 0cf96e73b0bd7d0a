package search

import (
	"fmt"
	"math"
	"testing"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/obs"
	"autohet/internal/rl"
	"autohet/internal/xbar"
)

func testEnv(t *testing.T, m *dnn.Model, cands []xbar.Shape, shared bool) *Env {
	t.Helper()
	env, err := NewEnv(hw.DefaultConfig(), m, cands, shared)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func bestHomoRUE(t *testing.T, env *Env) float64 {
	t.Helper()
	evals, best, err := BestHomogeneous(env, env.Candidates)
	if err != nil {
		t.Fatal(err)
	}
	return evals[best].Result.RUE()
}

// tinyModel is a 4-layer model small enough for exhaustive search.
func tinyModel(t *testing.T) *dnn.Model {
	t.Helper()
	specs := [][3]int{{3, 3, 32}, {3, 32, 64}, {1, 64, 128}, {1, 128, 10}}
	var layers []*dnn.Layer
	for _, s := range specs {
		layers = append(layers, &dnn.Layer{
			Name: "c", Kind: dnn.Conv, K: s[0], InC: s[1], OutC: s[2],
			Stride: 1, Pad: 1, InH: 16, InW: 16,
		})
	}
	m, err := dnn.NewFlatModel("tiny", 16, 16, 3, layers)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewEnvValidation(t *testing.T) {
	m := tinyModel(t)
	if _, err := NewEnv(hw.DefaultConfig(), m, nil, false); err == nil {
		t.Fatal("empty candidates must error")
	}
	if _, err := NewEnv(hw.DefaultConfig(), m, []xbar.Shape{{}}, false); err == nil {
		t.Fatal("invalid candidate must error")
	}
	bad := hw.DefaultConfig()
	bad.PEsPerTile = 0
	if _, err := NewEnv(bad, m, xbar.DefaultCandidates(), false); err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestStateVector(t *testing.T) {
	m := dnn.VGG16()
	env := testEnv(t, m, xbar.DefaultCandidates(), false)
	s := env.State(3, 0.7, 0.8)
	if len(s) != StateDim {
		t.Fatalf("state dim %d, want %d", len(s), StateDim)
	}
	// Layer 4 of VGG16 is CONV k3 128→128.
	if s[1] != 1 {
		t.Fatal("conv layer type flag wrong")
	}
	if s[8] != 0.7 || s[9] != 0.8 {
		t.Fatal("dynamic features not propagated")
	}
	for i, v := range s {
		if v < 0 || v > 1.5 {
			t.Fatalf("state[%d] = %v badly scaled", i, v)
		}
	}
	// FC layer flags 0.
	fcState := env.State(15, 0, 0)
	if fcState[1] != 0 {
		t.Fatal("fc layer type flag wrong")
	}
	if fcState[5] != 0.5 {
		t.Fatalf("fc stride feature = %v, want 0.5", fcState[5])
	}
}

func TestStatePanicsOutOfRange(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates(), false)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range layer did not panic")
		}
	}()
	env.State(99, 0, 0)
}

func TestDecodeAction(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates(), false)
	cases := []struct {
		a    float64
		want int
	}{
		{0, 0}, {0.19, 0}, {0.21, 1}, {0.5, 2}, {0.99, 4}, {1.0, 4}, {-0.1, 0},
	}
	for _, c := range cases {
		if got := env.DecodeAction(c.a); got != c.want {
			t.Errorf("DecodeAction(%v) = %d, want %d", c.a, got, c.want)
		}
	}
}

func TestLayerUtilizationMatchesEq4(t *testing.T) {
	m := dnn.VGG16()
	env := testEnv(t, m, xbar.DefaultCandidates(), false)
	// VGG16 L4 on 36×32 is 100% (§3.3).
	if u := env.LayerUtilization(3, 1); u != 1.0 {
		t.Fatalf("L4 on 36x32 = %v, want 1", u)
	}
}

func TestBestHomogeneous(t *testing.T) {
	env := testEnv(t, dnn.VGG16(), xbar.SquareCandidates(), false)
	evals, best, err := BestHomogeneous(env, xbar.SquareCandidates())
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 5 || best < 0 || best >= 5 {
		t.Fatalf("evals %d best %d", len(evals), best)
	}
	for i, e := range evals {
		if e.Result.RUE() > evals[best].Result.RUE() {
			t.Fatalf("best index wrong: %d beats %d", i, best)
		}
	}
	if _, _, err := BestHomogeneous(env, nil); err == nil {
		t.Fatal("empty shapes must error")
	}
}

func TestGreedyMaximizesLayerUtilization(t *testing.T) {
	env := testEnv(t, dnn.VGG16(), xbar.DefaultCandidates(), false)
	ev, err := Greedy(env)
	if err != nil {
		t.Fatal(err)
	}
	for k, s := range ev.Strategy {
		got := xbar.Utilization(env.Model.Mappable()[k], s)
		for _, c := range env.Candidates {
			if u := xbar.Utilization(env.Model.Mappable()[k], c); u > got+1e-9 {
				t.Fatalf("layer %d: greedy picked %v (%.3f), %v has %.3f", k, s, got, c, u)
			}
		}
	}
}

func TestRandomSearchDeterministicPerSeed(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates(), false)
	a, err := RandomSearch(env, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomSearch(env, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.RUE() != b.Result.RUE() {
		t.Fatal("same seed must reproduce the same search")
	}
	if _, err := RandomSearch(env, 0, 1); err == nil {
		t.Fatal("zero rounds must error")
	}
}

func TestExhaustiveTinyAndBound(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:3], false)
	best, err := Exhaustive(env)
	if err != nil {
		t.Fatal(err)
	}
	// The optimum must beat or match every homogeneous build.
	_, bh, err := BestHomogeneous(env, env.Candidates)
	if err != nil {
		t.Fatal(err)
	}
	evals, _, _ := BestHomogeneous(env, env.Candidates)
	if best.Result.RUE() < evals[bh].Result.RUE()-1e-12 {
		t.Fatal("exhaustive lost to a homogeneous build")
	}
	// ResNet152's space must be rejected.
	bigEnv := testEnv(t, dnn.ResNet152(), xbar.DefaultCandidates(), false)
	if _, err := Exhaustive(bigEnv); err == nil {
		t.Fatal("exhaustive on ResNet152 must error")
	}
}

// The core claim: the RL search finds (near-)optimal heterogeneous
// strategies. On the tiny model, compare against exhaustive enumeration.
func TestAutoHetApproachesExhaustiveOptimum(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:3], true)
	optimal, err := Exhaustive(env)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Rounds = 150
	res, err := AutoHet(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.BestResult.RUE() / optimal.Result.RUE()
	if ratio < 0.9 {
		t.Fatalf("RL best %.4g is %.1f%% of optimum %.4g", res.BestResult.RUE(), 100*ratio, optimal.Result.RUE())
	}
}

func TestAutoHetBeatsBestHomogeneousOnVGG16(t *testing.T) {
	if testing.Short() {
		t.Skip("RL search in -short mode")
	}
	env := testEnv(t, dnn.VGG16(), xbar.DefaultCandidates(), true)
	homoEnv := testEnv(t, dnn.VGG16(), xbar.SquareCandidates(), false)
	evals, best, err := BestHomogeneous(homoEnv, xbar.SquareCandidates())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Rounds = 120
	res, err := AutoHet(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestResult.RUE() <= evals[best].Result.RUE() {
		t.Fatalf("AutoHet RUE %.4g did not beat best homogeneous %.4g",
			res.BestResult.RUE(), evals[best].Result.RUE())
	}
	if len(res.History) != 120 {
		t.Fatalf("history len %d", len(res.History))
	}
}

func TestAutoHetOptionsValidation(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates(), false)
	for _, tc := range []struct {
		name string
		edit func(*Options)
	}{
		{"zero rounds", func(o *Options) { o.Rounds = 0 }},
		{"wrong state dim", func(o *Options) { o.Agent = rl.DefaultAgentConfig(3) }},
		{"hidden 0", func(o *Options) { o.Agent.Hidden = 0 }},
		{"capacity 0", func(o *Options) { o.Agent.Capacity = 0 }},
		{"batch 0", func(o *Options) { o.Agent.Batch = 0 }},
		{"actor lr NaN", func(o *Options) { o.Agent.ActorLR = math.NaN() }},
		{"critic lr +Inf", func(o *Options) { o.Agent.CriticLR = math.Inf(1) }},
		{"gamma NaN", func(o *Options) { o.Agent.Gamma = math.NaN() }},
		{"tau -Inf", func(o *Options) { o.Agent.Tau = math.Inf(-1) }},
		{"sigma NaN", func(o *Options) { o.Agent.Sigma = math.NaN() }},
		{"sigma decay 2", func(o *Options) { o.Agent.SigmaDecay = 2 }},
		{"negative update stride", func(o *Options) { o.UpdateStride = -1 }},
	} {
		opts := DefaultOptions()
		tc.edit(&opts)
		if _, err := AutoHet(env, opts); err == nil {
			t.Errorf("%s must error", tc.name)
		}
	}
}

func TestAutoHetProgressCallbackAndBestTracking(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:2], false)
	opts := DefaultOptions()
	opts.Rounds = 10
	calls := 0
	opts.Progress = func(rs RoundStats) { calls++ }
	res, err := AutoHet(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 10 {
		t.Fatalf("progress calls %d", calls)
	}
	// Best must be achievable: re-evaluating it reproduces BestResult.
	re, err := env.EvalStrategy(res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(re.RUE()-res.BestResult.RUE()) > 1e-12 {
		t.Fatal("stored best result does not match its strategy")
	}
	// History RUEs never exceed the best.
	for _, h := range res.History {
		if h.RUE > res.BestResult.RUE()+1e-12 {
			t.Fatal("history contains round better than best")
		}
	}
	if err := res.Best.Validate(env.Model); err != nil {
		t.Fatal(err)
	}
}

func TestEvalIndicesErrors(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates(), false)
	if _, err := env.EvalIndices([]int{0, 1, 2, 99}); err == nil {
		t.Fatal("bad index must error")
	}
	if _, err := env.EvalIndices([]int{0}); err == nil {
		t.Fatal("short strategy must error")
	}
}

// Reward normalization: the env reward handed to the agent is RUE/RefRUE,
// so a homogeneous-equivalent round scores ~1.
func TestRewardNormalization(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:2], false)
	opts := DefaultOptions()
	opts.Rounds = 5
	res, err := AutoHet(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.History {
		if math.Abs(h.Reward-h.RUE/res.RefRUE) > 1e-12 {
			t.Fatal("reward != RUE/RefRUE")
		}
	}
	if res.RefRUE <= 0 {
		t.Fatal("RefRUE must be positive")
	}
}

// Strategy round-trip through accel: manual-hetero on VGG16 must beat
// every homogeneous SXB build in RUE (the paper's Fig. 3 motivation).
func TestManualHeteroBeatsHomogeneous(t *testing.T) {
	env := testEnv(t, dnn.VGG16(), xbar.SquareCandidates(), false)
	manual := accel.ManualHetero(16)
	mr, err := env.EvalStrategy(manual)
	if err != nil {
		t.Fatal(err)
	}
	evals, best, err := BestHomogeneous(env, xbar.SquareCandidates())
	if err != nil {
		t.Fatal(err)
	}
	if mr.RUE() <= evals[best].Result.RUE() {
		t.Fatalf("manual hetero RUE %.4g did not beat best homogeneous %.4g",
			mr.RUE(), evals[best].Result.RUE())
	}
}

// Depthwise layers are the extreme heterogeneity case: their block-diagonal
// unfolding wastes most of a large crossbar, so a heterogeneous strategy
// must beat every homogeneous one clearly.
func TestAutoHetOnDepthwiseNet(t *testing.T) {
	if testing.Short() {
		t.Skip("RL search in -short mode")
	}
	env := testEnv(t, dnn.DepthwiseNet(), xbar.DefaultCandidates(), true)
	evals, best, err := BestHomogeneous(env, env.Candidates)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Rounds = 120
	res, err := AutoHet(env, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestResult.RUE() < evals[best].Result.RUE() {
		t.Fatalf("AutoHet %v below best homogeneous %v on DepthwiseNet",
			res.BestResult.RUE(), evals[best].Result.RUE())
	}
	// The found strategy should be genuinely heterogeneous: the depthwise
	// layers' best shapes differ from the big pointwise/FC layers' unless
	// a single shape truly dominates (allow that, but check utilization
	// stayed reasonable).
	if res.BestResult.Utilization <= evals[best].Result.Utilization/2 {
		t.Fatalf("AutoHet utilization %v collapsed vs homogeneous %v",
			res.BestResult.Utilization, evals[best].Result.Utilization)
	}
}

// A zero UpdateStride selects the default stride of 1: the two searches
// are the same search.
func TestAutoHetZeroUpdateStrideIsDefault(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:2], false)
	run := func(stride int) *Result {
		opts := DefaultOptions()
		opts.Rounds = 6
		opts.UpdateStride = stride
		res, err := AutoHet(env, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(0), run(1)
	if a.BestResult.RUE() != b.BestResult.RUE() || len(a.History) != len(b.History) {
		t.Fatalf("stride 0 best RUE %v, stride 1 %v", a.BestResult.RUE(), b.BestResult.RUE())
	}
	for i := range a.History {
		if a.History[i].RUE != b.History[i].RUE {
			t.Fatalf("round %d: stride 0 RUE %v, stride 1 %v", i, a.History[i].RUE, b.History[i].RUE)
		}
	}
}

// AutoHet bills each round's decide, simulate and learn stages, and the
// whole search loop, to its stage counters; the loop holds its stages.
func TestAutoHetStageCounters(t *testing.T) {
	env := testEnv(t, tinyModel(t), xbar.DefaultCandidates()[:2], false)
	opts := DefaultOptions()
	opts.Rounds = 5
	stages := []string{"decide", "simulate", "learn", "search"}
	read := func() []int64 {
		snap := obs.Default.JSON()
		v := make([]int64, len(stages))
		for i, st := range stages {
			v[i] = snap.Counters[fmt.Sprintf("autohet_search_stage_ns_total{stage=%q}", st)]
		}
		return v
	}
	before := read()
	if _, err := AutoHet(env, opts); err != nil {
		t.Fatal(err)
	}
	after := read()
	d := make([]int64, len(stages))
	for i, st := range stages {
		if d[i] = after[i] - before[i]; d[i] <= 0 {
			t.Fatalf("stage %s billed %d ns", st, d[i])
		}
	}
	if d[3] < d[0]+d[1]+d[2] {
		t.Fatalf("search loop %d ns, its stages sum to %d ns", d[3], d[0]+d[1]+d[2])
	}
}
