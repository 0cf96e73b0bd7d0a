// Package nn is a small fully-connected neural-network library built for the
// DDPG agent in package rl. It supports batched forward/backward passes over
// a whole minibatch (bit-identical to passing the samples one at a time; the
// one-sample Forward/Backward are their B = 1 case), run on AVX2 assembly
// kernels where the CPU has them and on portable loops that give the same
// bits elsewhere; an input-gradient-only backward for probing a network; the
// Adam optimizer; and the soft (Polyak) parameter updates DDPG's target
// networks require. It deliberately implements only what the paper's RL
// search needs — dense layers with ReLU/tanh/sigmoid/linear activations.
package nn

import (
	"math"

	"autohet/internal/cpufeat"
)

// Activation names an element-wise nonlinearity applied after a dense layer.
type Activation int

// Supported activations. Linear is the identity and is used on critic
// outputs; Sigmoid bounds actor outputs to (0,1) so they can be decoded into
// a crossbar-candidate index; Tanh is the conventional DDPG hidden/actor
// choice; ReLU is used in hidden layers.
const (
	Linear Activation = iota
	ReLU
	Tanh
	Sigmoid
)

// valid reports whether a is one of the supported activations.
func (a Activation) valid() bool { return a >= Linear && a <= Sigmoid }

// String returns the activation's conventional lowercase name.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	default:
		return "unknown"
	}
}

// Apply computes the activation of x.
func (a Activation) Apply(x float64) float64 {
	v := [1]float64{x}
	a.applyTo(v[:])
	return v[0]
}

// applyTo overwrites every element of v with its activation, choosing the
// case once per slice rather than once per element.
func (a Activation) applyTo(v []float64) {
	switch a {
	case Linear:
	case ReLU:
		for i, x := range v {
			if x < 0 {
				v[i] = 0
			}
		}
	case Tanh:
		for i, x := range v {
			v[i] = math.Tanh(x)
		}
	case Sigmoid:
		for i, x := range v {
			v[i] = 1 / (1 + math.Exp(-x))
		}
	default:
		panic("nn: unknown activation")
	}
}

// Derivative computes dσ/dx given the activation output y = σ(x). Expressing
// the derivative in terms of the output avoids caching pre-activations.
func (a Activation) Derivative(y float64) float64 {
	switch a {
	case Linear:
		return 1
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	case Tanh:
		return 1 - y*y
	case Sigmoid:
		return y * (1 - y)
	default:
		panic("nn: unknown activation")
	}
}

// mulDerivative multiplies every d[k] by the derivative at output y[k],
// choosing the case once per slice. ReLU's derivative is selected without
// a branch, since live and dead units mix at random; it is the same 1 or
// +0 that Derivative returns, so every product is unchanged. On AVX2
// hardware reluDeriv4 computes every full block of four, the loop the rest.
func (a Activation) mulDerivative(d, y []float64) {
	y = y[:len(d)]
	if a != ReLU {
		for k, v := range y {
			d[k] *= a.Derivative(v)
		}
		return
	}
	k0 := 0
	if cpufeat.AVX2 && len(d) >= 4 {
		k0 = len(d) &^ 3
		reluDeriv4(&d[0], &y[0], k0/4)
	}
	d = d[k0:]
	for k, v := range y[k0:] {
		var bits uint64 // of 1.0 where v > 0, of +0 elsewhere
		if v > 0 {
			bits = 0x3ff0000000000000
		}
		d[k] *= math.Float64frombits(bits)
	}
}
