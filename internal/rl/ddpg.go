package rl

import (
	"fmt"
	"math"
	"math/rand"

	"autohet/internal/mat"
	"autohet/internal/nn"
)

// AgentConfig collects the DDPG hyperparameters.
type AgentConfig struct {
	StateDim int
	Hidden   int     // width of the two hidden layers in actor and critic
	ActorLR  float64 // Adam step size for the actor
	CriticLR float64 // Adam step size for the critic
	Gamma    float64 // discount
	Tau      float64 // soft target-update rate
	Sigma    float64 // initial OU exploration sigma
	// SigmaDecay multiplies sigma once per episode (EndEpisode) and
	// SigmaMin floors it, so exploration anneals as the search converges.
	// Zero values select the paper schedule (0.99 decay to a 0.02 floor).
	SigmaDecay float64
	SigmaMin   float64
	Capacity   int // experience-pool capacity
	Batch      int // minibatch size per update
	Seed       int64
}

// Validate reports a config NewAgent cannot build or Update cannot train
// with: non-positive sizes; non-finite learning rates, discount or
// target-update rate; a non-finite or negative exploration sigma or sigma
// floor; and a sigma decay outside (0, 1] (zero selects the default).
func (c AgentConfig) Validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"state dim", c.StateDim}, {"hidden width", c.Hidden}, {"replay capacity", c.Capacity}, {"batch", c.Batch}} {
		if f.v <= 0 {
			return fmt.Errorf("rl: %s %d must be positive", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"actor learning rate", c.ActorLR}, {"critic learning rate", c.CriticLR}, {"gamma", c.Gamma}, {"tau", c.Tau}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("rl: %s %v must be finite", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"sigma", c.Sigma}, {"sigma floor", c.SigmaMin}} {
		if !(f.v >= 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("rl: %s %v must be finite and non-negative", f.name, f.v)
		}
	}
	if d := c.SigmaDecay; d != 0 && !(d > 0 && d <= 1) {
		return fmt.Errorf("rl: sigma decay %v outside (0, 1]", d)
	}
	return nil
}

// DefaultAgentConfig returns hyperparameters that converge on all the paper
// workloads within a few hundred episodes.
func DefaultAgentConfig(stateDim int) AgentConfig {
	return AgentConfig{
		StateDim:   stateDim,
		Hidden:     64,
		ActorLR:    1e-3,
		CriticLR:   1e-2,
		Gamma:      0.6,
		Tau:        0.01,
		Sigma:      0.4,
		SigmaDecay: 0.99,
		SigmaMin:   0.02,
		Capacity:   8192,
		Batch:      64,
		Seed:       1,
	}
}

// Agent is the DDPG actor-critic pair with target networks (paper §3.2).
// The actor maps a state to one deterministic action in (0,1); the critic
// estimates Q(s, a). Not safe for concurrent use.
type Agent struct {
	cfg AgentConfig
	rng *rand.Rand

	Actor        *nn.Network
	ActorTarget  *nn.Network
	Critic       *nn.Network
	CriticTarget *nn.Network

	actorOpt  *nn.Adam
	criticOpt *nn.Adam
	Noise     *OUNoise
	Pool      *Replay

	// Minibatch scratch, reused by every Update: the sampled transitions,
	// one Batch for the actor-shaped networks and one for the critics, and
	// two per-sample columns (targets, output gradients).
	sample       []Transition
	actorBatch   *nn.Batch
	criticBatch  *nn.Batch
	target, grad []float64
	updates      int
}

// NewAgent builds a DDPG agent. Targets start as copies of the online
// networks. It panics on a config Validate rejects.
func NewAgent(cfg AgentConfig) *Agent {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	// Zero-value sigma schedule selects the paper defaults; this also
	// normalizes configs gob-decoded from saves that predate the fields.
	if cfg.SigmaDecay == 0 {
		cfg.SigmaDecay = 0.99
	}
	if cfg.SigmaMin == 0 {
		cfg.SigmaMin = 0.02
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	actor := nn.NewNetwork(rng, cfg.StateDim,
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ReLU},
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ReLU},
		nn.LayerSpec{Out: 1, Act: nn.Sigmoid},
	)
	critic := nn.NewNetwork(rng, cfg.StateDim+1,
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ReLU},
		nn.LayerSpec{Out: cfg.Hidden, Act: nn.ReLU},
		nn.LayerSpec{Out: 1, Act: nn.Linear},
	)
	a := &Agent{
		cfg:          cfg,
		rng:          rng,
		Actor:        actor,
		ActorTarget:  actor.Clone(),
		Critic:       critic,
		CriticTarget: critic.Clone(),
		actorOpt:     nn.NewAdam(actor, cfg.ActorLR),
		criticOpt:    nn.NewAdam(critic, cfg.CriticLR),
		Noise:        NewOUNoise(rng, cfg.Sigma),
		Pool:         NewReplay(cfg.Capacity),
		sample:       make([]Transition, cfg.Batch),
		actorBatch:   nn.NewBatch(actor, cfg.Batch),
		criticBatch:  nn.NewBatch(critic, cfg.Batch),
		target:       make([]float64, cfg.Batch),
		grad:         make([]float64, cfg.Batch),
	}
	return a
}

// Act returns the deterministic policy action for state, in (0,1).
func (a *Agent) Act(state []float64) float64 {
	return a.Actor.Forward(state)[0]
}

// ActNoisy returns the policy action perturbed by OU exploration noise,
// clamped to [0,1].
func (a *Agent) ActNoisy(state []float64) float64 {
	return mat.Clamp(a.Act(state)+a.Noise.Sample(), 0, 1)
}

// Remember stores a transition in the experience pool.
func (a *Agent) Remember(t Transition) { a.Pool.Add(t) }

// targets fills a.target with y = r + γ(1−done)·Q'(s', μ'(s')) for every
// sample. Terminal samples need no target pass, so the live ones are
// packed in sample order.
func (a *Agent) targets(batch []Transition) []float64 {
	sd := a.cfg.StateDim
	live := 0
	in := a.actorBatch.Input(len(batch))
	for _, t := range batch {
		if !t.Done {
			copy(in[live*sd:(live+1)*sd], t.NextState)
			live++
		}
	}
	q := a.grad[:live]
	if live > 0 {
		na := a.ActorTarget.ForwardBatch(a.actorBatch, live)
		cin := a.criticBatch.Input(live)
		for k, act := range na {
			copy(cin[k*(sd+1):], in[k*sd:(k+1)*sd])
			cin[k*(sd+1)+sd] = act
		}
		copy(q, a.CriticTarget.ForwardBatch(a.criticBatch, live))
	}
	y, k := a.target, 0
	for i, t := range batch {
		if t.Done {
			y[i] = t.Reward
			continue
		}
		y[i] = t.Reward + a.cfg.Gamma*q[k]
		k++
	}
	return y
}

// Update samples one minibatch from the pool and performs one critic step,
// one actor step, and a soft target update. It returns the critic's mean
// squared TD error over the batch. It is a no-op returning 0 until the pool
// holds at least one batch of experience.
//
// Every network pass covers the whole minibatch at once (nn.ForwardBatch),
// and every number equals that of passing the samples one at a time in
// order: the passes are exact and gradients accumulate in sample order
// (DESIGN.md §17). Both networks' gradients are +0 on entry — fresh
// networks start there and Adam.Step clears what each backward pass
// accumulated — so no ZeroGrad precedes the backward passes
// (TestUpdateLeavesGradientsZero).
func (a *Agent) Update() float64 {
	if a.Pool.Len() < a.cfg.Batch {
		return 0
	}
	batch, sd := a.sample, a.cfg.StateDim
	a.Pool.Sample(a.rng, batch)
	y := a.targets(batch)

	// Critic: minimize (Q(s,a) − y)².
	cin := a.criticBatch.Input(len(batch))
	for i, t := range batch {
		copy(cin[i*(sd+1):], t.State)
		cin[i*(sd+1)+sd] = t.Action
	}
	var tdSum float64
	for i, q := range a.Critic.ForwardBatch(a.criticBatch, len(batch)) {
		td := q - y[i]
		tdSum += td * td
		a.grad[i] = td
	}
	a.Critic.BackwardBatch(a.criticBatch, a.grad)
	a.criticOpt.Step(a.Critic, a.cfg.Batch)
	a.updates++

	// Actor: ascend ∇_a Q(s, μ(s))·∇_θ μ(s). The critic is only probed for
	// dQ/da, so it accumulates no gradients.
	in := a.actorBatch.Input(len(batch))
	for i, t := range batch {
		copy(in[i*sd:(i+1)*sd], t.State)
	}
	act := a.Actor.ForwardBatch(a.actorBatch, len(batch))
	for i, t := range batch {
		copy(cin[i*(sd+1):], t.State)
		cin[i*(sd+1)+sd] = act[i]
	}
	a.Critic.ForwardBatch(a.criticBatch, len(batch))
	for i := range a.grad {
		a.grad[i] = 1
	}
	a.Critic.InputGradBatch(a.criticBatch, a.grad, sd, a.grad)
	for i, dQda := range a.grad {
		a.grad[i] = -dQda // minimize −Q
	}
	a.Actor.BackwardBatch(a.actorBatch, a.grad)
	a.actorOpt.Step(a.Actor, a.cfg.Batch)

	// Soft target tracking.
	a.ActorTarget.SoftUpdate(a.Actor, a.cfg.Tau)
	a.CriticTarget.SoftUpdate(a.Critic, a.cfg.Tau)
	return tdSum / float64(a.cfg.Batch)
}

// Updates reports how many minibatch updates have run.
func (a *Agent) Updates() int { return a.updates }

// StartEpisode resets the exploration noise to its mean so the episode's
// first action is not biased by residual state — from the previous episode
// of this search, or from a loaded agent's earlier life. Search loops
// call it at the top of every episode; it is idempotent.
func (a *Agent) StartEpisode() { a.Noise.Reset() }

// EndEpisode decays the exploration magnitude on the configured schedule
// (paper default: ×0.99 per episode, floored at 0.02) and resets the noise
// state for the next episode.
func (a *Agent) EndEpisode() {
	a.Noise.Decay(a.cfg.SigmaDecay, a.cfg.SigmaMin)
	a.Noise.Reset()
}
