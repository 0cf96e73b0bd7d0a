package rl

import (
	"math/rand"
	"testing"
)

// benchAgent returns an agent at the search's default sizes (10-wide state,
// 64-wide hidden layers, minibatch 64) with a pool of seeded transitions,
// every fifth one terminal.
func benchAgent(cfg AgentConfig) *Agent {
	a := NewAgent(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	state := func() []float64 {
		s := make([]float64, cfg.StateDim)
		for i := range s {
			s[i] = rng.Float64()
		}
		return s
	}
	for i := 0; i < 1024; i++ {
		a.Remember(Transition{State: state(), Action: rng.Float64(), Reward: rng.Float64(), NextState: state(), Done: i%5 == 4})
	}
	return a
}

// BenchmarkAgentUpdate times Update on a fresh agent rebuilt, with the timer
// stopped, every 1000 updates, so ns/op does not depend on -benchtime: on
// one agent run for ~10k updates, the Adam moments of units that get no
// gradient decay into subnormals and slow every step.
func BenchmarkAgentUpdate(b *testing.B) {
	var a *Agent
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%1000 == 0 {
			b.StopTimer()
			a = benchAgent(DefaultAgentConfig(10))
			b.StartTimer()
		}
		a.Update()
	}
}
