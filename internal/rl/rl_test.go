package rl

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"autohet/internal/nn"
)

func TestReplayRing(t *testing.T) {
	r := NewReplay(3)
	if r.Cap() != 3 || r.Len() != 0 {
		t.Fatalf("cap %d len %d", r.Cap(), r.Len())
	}
	for i := 0; i < 5; i++ {
		r.Add(Transition{Reward: float64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	// Oldest (0, 1) evicted: rewards present must be {2,3,4}.
	seen := map[float64]bool{}
	for _, tr := range r.buf {
		seen[tr.Reward] = true
	}
	for _, want := range []float64{2, 3, 4} {
		if !seen[want] {
			t.Fatalf("reward %v missing after eviction: %v", want, seen)
		}
	}
}

func TestReplaySample(t *testing.T) {
	r := NewReplay(4)
	r.Add(Transition{Reward: 7})
	rng := rand.New(rand.NewSource(1))
	s := make([]Transition, 10)
	r.Sample(rng, s)
	for _, tr := range s {
		if tr.Reward != 7 {
			t.Fatal("sample returned foreign transition")
		}
	}
}

func TestReplayPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero capacity did not panic")
			}
		}()
		NewReplay(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty sample did not panic")
			}
		}()
		NewReplay(1).Sample(rand.New(rand.NewSource(1)), make([]Transition, 1))
	}()
}

func TestOUNoiseMeanReversion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := NewOUNoise(rng, 0.3)
	var sum float64
	const steps = 20000
	for i := 0; i < steps; i++ {
		sum += n.Sample()
	}
	mean := sum / steps
	if math.Abs(mean) > 0.1 {
		t.Fatalf("OU mean %v too far from 0", mean)
	}
}

func TestOUNoiseResetAndDecay(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := NewOUNoise(rng, 0.4)
	n.Sample()
	n.Reset()
	if n.state != 0 {
		t.Fatal("Reset did not return to mu")
	}
	n.Decay(0.5, 0.1)
	if n.Sigma != 0.2 {
		t.Fatalf("Sigma = %v, want 0.2", n.Sigma)
	}
	n.Decay(0.1, 0.1)
	if n.Sigma != 0.1 {
		t.Fatalf("Sigma floor = %v, want 0.1", n.Sigma)
	}
}

func TestAgentActRange(t *testing.T) {
	cfg := DefaultAgentConfig(4)
	a := NewAgent(cfg)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		s := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		act := a.Act(s)
		if act <= 0 || act >= 1 {
			t.Fatalf("Act = %v outside (0,1)", act)
		}
		noisy := a.ActNoisy(s)
		if noisy < 0 || noisy > 1 {
			t.Fatalf("ActNoisy = %v outside [0,1]", noisy)
		}
	}
}

func TestAgentDeterministicGivenSeed(t *testing.T) {
	s := []float64{0.1, 0.2, 0.3, 0.4}
	a1 := NewAgent(DefaultAgentConfig(4))
	a2 := NewAgent(DefaultAgentConfig(4))
	if a1.Act(s) != a2.Act(s) {
		t.Fatal("same seed must give same policy")
	}
}

func TestUpdateNoopUntilBatchFull(t *testing.T) {
	cfg := DefaultAgentConfig(2)
	cfg.Batch = 8
	a := NewAgent(cfg)
	a.Remember(Transition{State: []float64{0, 0}, NextState: []float64{0, 0}})
	if td := a.Update(); td != 0 || a.Updates() != 0 {
		t.Fatalf("premature update: td %v updates %d", td, a.Updates())
	}
}

// Bandit sanity check: state s ∈ {0.25, 0.75}; reward 1 when the action
// lands on the same side as the state, else 0. DDPG must learn the state-
// conditional policy.
func TestAgentLearnsStateConditionalBandit(t *testing.T) {
	cfg := DefaultAgentConfig(1)
	cfg.Batch = 32
	cfg.Seed = 5
	a := NewAgent(cfg)
	rng := rand.New(rand.NewSource(6))
	for ep := 0; ep < 600; ep++ {
		s := 0.25
		if rng.Intn(2) == 1 {
			s = 0.75
		}
		act := a.ActNoisy([]float64{s})
		reward := 0.0
		if (s < 0.5) == (act < 0.5) {
			reward = 1
		}
		a.Remember(Transition{State: []float64{s}, Action: act, Reward: reward, NextState: []float64{s}, Done: true})
		a.Update()
		a.EndEpisode()
	}
	low := a.Act([]float64{0.25})
	high := a.Act([]float64{0.75})
	if low >= 0.5 {
		t.Fatalf("policy(0.25) = %v, want < 0.5", low)
	}
	if high <= 0.5 {
		t.Fatalf("policy(0.75) = %v, want > 0.5", high)
	}
}

// The critic must regress toward the bandit's value function: TD error
// shrinks over training.
func TestCriticTDErrorDecreases(t *testing.T) {
	cfg := DefaultAgentConfig(1)
	cfg.Batch = 16
	cfg.Seed = 7
	a := NewAgent(cfg)
	rng := rand.New(rand.NewSource(8))
	var early, late float64
	const rounds = 400
	for ep := 0; ep < rounds; ep++ {
		s := rng.Float64()
		act := a.ActNoisy([]float64{s})
		a.Remember(Transition{State: []float64{s}, Action: act, Reward: act * s, NextState: []float64{s}, Done: true})
		td := a.Update()
		if ep >= 50 && ep < 100 {
			early += td
		}
		if ep >= rounds-50 {
			late += td
		}
	}
	if late >= early {
		t.Fatalf("TD error did not decrease: early %v late %v", early, late)
	}
}

func TestEndEpisodeDecaysNoise(t *testing.T) {
	a := NewAgent(DefaultAgentConfig(2))
	before := a.Noise.Sigma
	a.EndEpisode()
	if a.Noise.Sigma >= before {
		t.Fatal("EndEpisode must decay sigma")
	}
}

// TestEpisodeNoiseHygiene is the regression test for OU episode hygiene:
// two consecutive episodes must each start with the noise process at its
// mean, even when actions between them perturbed the state, and even for an
// agent that arrives mid-life (warm start) — StartEpisode clears residual
// state that EndEpisode alone cannot reach.
func TestEpisodeNoiseHygiene(t *testing.T) {
	a := NewAgent(DefaultAgentConfig(2))
	s := []float64{0.3, 0.7}
	runEpisode := func() {
		a.StartEpisode()
		if got := a.Noise.State(); got != a.Noise.Mu {
			t.Fatalf("episode started with noise state %v, want mean %v", got, a.Noise.Mu)
		}
		for i := 0; i < 10; i++ {
			a.ActNoisy(s)
		}
		a.EndEpisode()
	}
	runEpisode()
	runEpisode() // second consecutive episode also starts from the mean

	// Warm-start shape: an agent whose noise carries residual state from a
	// previous life (Sample without EndEpisode) must still start clean.
	for i := 0; i < 5; i++ {
		a.Noise.Sample()
	}
	if a.Noise.State() == a.Noise.Mu {
		t.Fatal("sampling should have perturbed the noise state")
	}
	a.StartEpisode()
	if got := a.Noise.State(); got != a.Noise.Mu {
		t.Fatalf("warm-started episode began at %v, want mean %v", got, a.Noise.Mu)
	}
}

// TestSigmaScheduleConfigurable pins the sigma decay schedule to the
// config: explicit values are honored, and zero values normalize to the
// paper schedule (×0.99 per episode, floored at 0.02) — including configs
// gob-decoded from saves that predate the fields.
func TestSigmaScheduleConfigurable(t *testing.T) {
	cfg := DefaultAgentConfig(2)
	if cfg.SigmaDecay != 0.99 || cfg.SigmaMin != 0.02 {
		t.Fatalf("default schedule %v/%v, want 0.99/0.02", cfg.SigmaDecay, cfg.SigmaMin)
	}
	cfg.SigmaDecay = 0.5
	cfg.SigmaMin = 0.1
	a := NewAgent(cfg)
	a.EndEpisode()
	if a.Noise.Sigma != 0.2 {
		t.Fatalf("sigma after one episode = %v, want 0.4×0.5 = 0.2", a.Noise.Sigma)
	}
	a.EndEpisode()
	a.EndEpisode()
	if a.Noise.Sigma != 0.1 {
		t.Fatalf("sigma floor = %v, want 0.1", a.Noise.Sigma)
	}
	// Zero-value schedule (legacy saves) normalizes to the paper defaults.
	legacy := AgentConfig{StateDim: 2, Hidden: 8, Sigma: 0.4, Capacity: 16, Batch: 4, Seed: 1}
	b := NewAgent(legacy)
	b.EndEpisode()
	if want := 0.4 * 0.99; math.Abs(b.Noise.Sigma-want) > 1e-12 {
		t.Fatalf("legacy-config sigma after one episode = %v, want %v", b.Noise.Sigma, want)
	}
}

func TestNewAgentPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("StateDim 0 did not panic")
		}
	}()
	NewAgent(AgentConfig{StateDim: 0})
}

// Update runs no ZeroGrad: it relies on every actor and critic gradient
// being +0 on entry — after NewAgent, after LoadAgent, and after each
// update, whose Adam steps clear what the backward passes accumulated.
func TestUpdateLeavesGradientsZero(t *testing.T) {
	checkZero := func(when string, a *Agent) {
		t.Helper()
		for name, net := range map[string]*nn.Network{"actor": a.Actor, "critic": a.Critic} {
			for li, l := range net.Layers {
				for i, g := range append(append([]float64(nil), l.GW.Data...), l.GB...) {
					if math.Float64bits(g) != 0 {
						t.Fatalf("%s: %s layer %d gradient %d = %v, want +0", when, name, li, i, g)
					}
				}
			}
		}
	}
	cfg := DefaultAgentConfig(3)
	cfg.Batch = 8
	a := NewAgent(cfg)
	checkZero("after NewAgent", a)
	rng := rand.New(rand.NewSource(6))
	train := func(a *Agent, tag string) {
		for i := 0; i < 24; i++ {
			s := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			next := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			a.Remember(Transition{State: s, Action: a.ActNoisy(s), Reward: rng.Float64(), NextState: next, Done: i%5 == 0})
			a.Update()
			checkZero(fmt.Sprintf("%s, after update %d", tag, a.Updates()), a)
		}
	}
	train(a, "new agent")
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadAgent(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkZero("after LoadAgent", back)
	train(back, "loaded agent")
}
