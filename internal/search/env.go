// Package search wires the DDPG agent to the accelerator simulator,
// implementing the paper's Fig. 6 workflow: the agent walks the model's
// layers emitting one crossbar-type action per layer (decision stage), the
// heterogeneous accelerator is built and simulated to produce the reward
// R = u/e (Eq. 2), and the experience pool feeds minibatch updates
// (learning stage). It also provides the evaluation baselines: homogeneous
// accelerators, the Fig. 3 manual heterogeneous strategy, greedy
// utilization-first search (Zhu et al. style), random search, and
// exhaustive enumeration for small models.
package search

import (
	"fmt"
	"math"
	"sync"

	"autohet/internal/accel"
	"autohet/internal/dnn"
	"autohet/internal/hw"
	"autohet/internal/sim"
	"autohet/internal/xbar"
)

// StateDim is the paper's 10-dimensional state vector (Table 1).
const StateDim = 10

// Env binds a model, a hardware config, and a crossbar candidate set into
// an RL environment.
type Env struct {
	Cfg        hw.Config
	Model      *dnn.Model
	Candidates []xbar.Shape
	// Shared enables the tile-shared allocation scheme during evaluation.
	Shared bool
	// NoCache makes the Evaluator fall through to the uncached
	// build-and-simulate path on every call — the honest baseline for
	// benchmarking the evaluation engine. Set it before searching.
	NoCache bool

	evalOnce  sync.Once
	evaluator *Evaluator
}

// NewEnv validates and constructs an environment.
func NewEnv(cfg hw.Config, m *dnn.Model, candidates []xbar.Shape, shared bool) (*Env, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("search: no crossbar candidates")
	}
	for _, s := range candidates {
		if !s.Valid() {
			return nil, fmt.Errorf("search: invalid candidate %v", s)
		}
	}
	return &Env{Cfg: cfg, Model: m, Candidates: candidates, Shared: shared}, nil
}

// log2n compresses a positive count to roughly [0,1] for network input.
func log2n(v, maxBits float64) float64 {
	if v < 1 {
		v = 1
	}
	return math.Log2(v) / maxBits
}

// State builds the normalized state vector for layer k (Table 1):
// (k, t, inc, outc, ks, s, w, ins, a_k, u_k). The two dynamic features are
// the previous decision's action value and its Eq.-4 utilization, matching
// the paper's "obtained from the decision stage" semantics.
func (e *Env) State(k int, prevAction, prevUtil float64) []float64 {
	layers := e.Model.Mappable()
	if k < 0 || k >= len(layers) {
		panic(fmt.Sprintf("search: layer index %d out of %d", k, len(layers)))
	}
	l := layers[k]
	t := 0.0
	if l.Kind == dnn.Conv {
		t = 1
	}
	return []float64{
		float64(k) / float64(len(layers)), // 1: layer index
		t,                                 // 2: layer type
		log2n(float64(l.InC), 12),         // 3: input channels
		log2n(float64(l.OutC), 12),        // 4: output channels
		float64(l.KernelElems()) / 49,     // 5: kernel elements (k ≤ 7)
		float64(l.Stride) / 2,             // 6: stride
		log2n(float64(l.Weights()), 25),   // 7: weight count
		log2n(float64(l.InputSize()), 16), // 8: input feature-map size
		prevAction,                        // 9: previous action
		prevUtil,                          // 10: previous utilization
	}
}

// DecodeAction maps a continuous action in [0,1] onto a candidate index by
// uniform binning.
func (e *Env) DecodeAction(a float64) int {
	idx := int(a * float64(len(e.Candidates)))
	if idx >= len(e.Candidates) {
		idx = len(e.Candidates) - 1
	}
	if idx < 0 {
		idx = 0
	}
	return idx
}

// LayerUtilization returns the Eq.-4 crossbar-array utilization of layer k
// under candidate idx — the u_k dynamic state feature.
func (e *Env) LayerUtilization(k, idx int) float64 {
	return xbar.Utilization(e.Model.Mappable()[k], e.Candidates[idx])
}

// evalDirect is the uncached evaluation path: materialize the full tile
// plan and simulate it. It backs NoCache and Materialize, and it is the
// reference the Evaluator's fast path must stay bit-identical to (asserted
// in tests). Programs price strategies through Evaluator only.
func (e *Env) evalDirect(st accel.Strategy, bits accel.Precision) (*sim.Result, error) {
	p, err := accel.Build(e.Cfg, e.Model, accel.PlanSpec{
		Strategy:  st,
		Precision: bits,
		Shared:    e.Shared,
	})
	if err != nil {
		return nil, err
	}
	return sim.Simulate(p)
}

// Evaluator returns the env's shared memoizing evaluation engine, creating
// it on first use. All searchers over the same env share one engine, so one
// search warms the caches the next profits from.
func (e *Env) Evaluator() *Evaluator {
	e.evalOnce.Do(func() {
		e.evaluator = &Evaluator{
			env:        e,
			strategies: map[string]*sim.Result{},
			layers:     map[layerKey]sim.LayerResult{},
		}
		e.evaluator.publish()
	})
	return e.evaluator
}

// NumLayers returns the number of decisions per episode.
func (e *Env) NumLayers() int { return e.Model.NumMappable() }
