package rl

import (
	"encoding/gob"
	"fmt"
	"io"

	"autohet/internal/nn"
)

// Agent persistence: the paper's workflow trains the RL agent once offline
// and reuses the resulting strategy many times (§4.5); saving the agent
// keeps the trained policy (cmd/autohet -save-agent) for inspection or
// further training.

type agentHeader struct {
	Cfg   AgentConfig
	Sigma float64
	Steps int
}

// Save writes the agent's configuration, exploration state, and all four
// networks (actor, critic, and their targets) to w. The experience pool is
// not persisted.
func (a *Agent) Save(w io.Writer) error {
	hdr := agentHeader{Cfg: a.cfg, Sigma: a.Noise.Sigma, Steps: a.updates}
	if err := gob.NewEncoder(w).Encode(hdr); err != nil {
		return fmt.Errorf("rl: encoding agent header: %w", err)
	}
	for _, net := range []*nn.Network{a.Actor, a.Critic, a.ActorTarget, a.CriticTarget} {
		if err := net.Save(w); err != nil {
			return fmt.Errorf("rl: encoding network: %w", err)
		}
	}
	return nil
}

// LoadAgent reads an agent saved by Save. Its optimizers restart fresh
// (Adam moments are not persisted), which matters only if training resumes.
func LoadAgent(r io.Reader) (*Agent, error) {
	var hdr agentHeader
	if err := gob.NewDecoder(r).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("rl: decoding agent header: %w", err)
	}
	if err := hdr.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("rl: corrupt agent header: %w", err)
	}
	a := NewAgent(hdr.Cfg)
	for i, slot := range []**nn.Network{&a.Actor, &a.Critic, &a.ActorTarget, &a.CriticTarget} {
		net, err := nn.LoadNetwork(r)
		if err != nil {
			return nil, fmt.Errorf("rl: decoding network %d: %w", i, err)
		}
		// The agent's batch scratch is sized for the configured shape.
		if !net.SameShape(*slot) {
			return nil, fmt.Errorf("rl: network %d layer widths do not match the header's config (state dim %d, hidden %d)",
				i, hdr.Cfg.StateDim, hdr.Cfg.Hidden)
		}
		*slot = net
	}
	// Rebind the optimizers to the loaded networks.
	a.actorOpt = nn.NewAdam(a.Actor, hdr.Cfg.ActorLR)
	a.criticOpt = nn.NewAdam(a.Critic, hdr.Cfg.CriticLR)
	a.Noise.Sigma = hdr.Sigma
	a.updates = hdr.Steps
	return a, nil
}
