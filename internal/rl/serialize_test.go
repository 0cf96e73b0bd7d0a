package rl

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"autohet/internal/nn"
)

func TestAgentSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultAgentConfig(4)
	cfg.Seed = 41
	a := NewAgent(cfg)
	// Perturb the agent so it differs from a fresh one.
	for i := 0; i < 80; i++ {
		s := []float64{0.1, 0.2, 0.3, 0.4}
		act := a.ActNoisy(s)
		a.Remember(Transition{State: s, Action: act, Reward: act, NextState: s, Done: true})
		a.Update()
	}
	a.EndEpisode()

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadAgent(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := []float64{0.5, 0.5, 0.5, 0.5}
	if a.Act(s) != back.Act(s) {
		t.Fatalf("policy diverged after round trip: %v vs %v", a.Act(s), back.Act(s))
	}
	if back.Noise.Sigma != a.Noise.Sigma {
		t.Fatalf("noise sigma %v vs %v", back.Noise.Sigma, a.Noise.Sigma)
	}
	if back.Updates() != a.Updates() {
		t.Fatalf("update count %d vs %d", back.Updates(), a.Updates())
	}
	// Loaded agent can keep training.
	back.Remember(Transition{State: s, Action: 0.5, Reward: 1, NextState: s, Done: true})
	for i := 0; i < back.cfg.Batch; i++ {
		back.Remember(Transition{State: s, Action: 0.5, Reward: 1, NextState: s, Done: true})
	}
	if back.Update() < 0 {
		t.Fatal("loaded agent failed to update")
	}
}

func TestLoadAgentRejectsGarbage(t *testing.T) {
	if _, err := LoadAgent(strings.NewReader("junk")); err == nil {
		t.Fatal("garbage must not decode")
	}
	// A valid header followed by nothing must also fail.
	a := NewAgent(DefaultAgentConfig(3))
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/4]
	if _, err := LoadAgent(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated agent must not decode")
	}
}

// badConfigs are configs Validate must reject, each of which NewAgent or the
// first Update would otherwise panic on or train into NaNs with.
var badConfigs = []struct {
	name string
	edit func(*AgentConfig)
}{
	{"state dim 0", func(c *AgentConfig) { c.StateDim = 0 }},
	{"hidden 0", func(c *AgentConfig) { c.Hidden = 0 }},
	{"hidden -3", func(c *AgentConfig) { c.Hidden = -3 }},
	{"capacity 0", func(c *AgentConfig) { c.Capacity = 0 }},
	{"batch 0", func(c *AgentConfig) { c.Batch = 0 }},
	{"batch -1", func(c *AgentConfig) { c.Batch = -1 }},
	{"actor lr NaN", func(c *AgentConfig) { c.ActorLR = math.NaN() }},
	{"critic lr +Inf", func(c *AgentConfig) { c.CriticLR = math.Inf(1) }},
	{"gamma NaN", func(c *AgentConfig) { c.Gamma = math.NaN() }},
	{"tau -Inf", func(c *AgentConfig) { c.Tau = math.Inf(-1) }},
	{"sigma NaN", func(c *AgentConfig) { c.Sigma = math.NaN() }},
	{"sigma -0.1", func(c *AgentConfig) { c.Sigma = -0.1 }},
	{"sigma +Inf", func(c *AgentConfig) { c.Sigma = math.Inf(1) }},
	{"sigma floor -1", func(c *AgentConfig) { c.SigmaMin = -1 }},
	{"sigma floor NaN", func(c *AgentConfig) { c.SigmaMin = math.NaN() }},
	{"sigma decay 1.5", func(c *AgentConfig) { c.SigmaDecay = 1.5 }},
	{"sigma decay -0.5", func(c *AgentConfig) { c.SigmaDecay = -0.5 }},
	{"sigma decay NaN", func(c *AgentConfig) { c.SigmaDecay = math.NaN() }},
	{"sigma decay +Inf", func(c *AgentConfig) { c.SigmaDecay = math.Inf(1) }},
}

func TestAgentConfigValidate(t *testing.T) {
	if err := DefaultAgentConfig(3).Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	for _, tc := range badConfigs {
		cfg := DefaultAgentConfig(3)
		tc.edit(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
	}
}

// A saved header with a bad config is an error from LoadAgent, not a panic.
func TestLoadAgentRejectsBadConfig(t *testing.T) {
	for _, tc := range badConfigs {
		cfg := DefaultAgentConfig(3)
		tc.edit(&cfg)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(agentHeader{Cfg: cfg, Sigma: 0.4}); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadAgent(&buf); err == nil {
			t.Errorf("%s: LoadAgent accepted the header", tc.name)
		}
	}
}

// Networks whose hidden width differs from the header's are rejected: the
// agent's batch scratch is sized from the header.
func TestLoadAgentRejectsShapeMismatch(t *testing.T) {
	a := NewAgent(DefaultAgentConfig(3))
	cfg := DefaultAgentConfig(3)
	cfg.Hidden = 32
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(agentHeader{Cfg: cfg, Sigma: 0.4}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []*nn.Network{a.Actor, a.Critic, a.ActorTarget, a.CriticTarget} {
		if err := n.Save(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadAgent(&buf); err == nil {
		t.Fatal("64-wide networks under a 32-wide header must not load")
	}
}
