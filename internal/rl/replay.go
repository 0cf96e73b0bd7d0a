// Package rl implements the paper's reinforcement-learning machinery from
// scratch: the DDPG agent (deterministic actor + Q critic with soft target
// networks, §3.2), the experience pool (replay buffer), and Ornstein–
// Uhlenbeck exploration noise. The action space is one continuous scalar in
// [0,1] that the search layer decodes into a crossbar-candidate index.
package rl

import (
	"fmt"
	"math/rand"
)

// Transition is one experience-pool entry, the paper's Eq. 3:
// E_k = (S_k, S_{k+1}, a_k, R). Done marks the episode's final layer.
type Transition struct {
	State     []float64
	Action    float64
	Reward    float64
	NextState []float64
	Done      bool
}

// Replay is a fixed-capacity ring buffer of transitions (the experience
// pool in Fig. 6).
type Replay struct {
	buf  []Transition
	next int
	full bool
}

// NewReplay returns an empty pool with the given capacity.
func NewReplay(capacity int) *Replay {
	if capacity <= 0 {
		panic(fmt.Sprintf("rl: replay capacity %d", capacity))
	}
	return &Replay{buf: make([]Transition, 0, capacity)}
}

// Add stores a transition, evicting the oldest once full.
func (r *Replay) Add(t Transition) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, t)
		return
	}
	r.full = true
	r.buf[r.next] = t
	r.next = (r.next + 1) % cap(r.buf)
}

// Len returns the number of stored transitions.
func (r *Replay) Len() int { return len(r.buf) }

// Cap returns the pool capacity.
func (r *Replay) Cap() int { return cap(r.buf) }

// Sample fills dst with transitions drawn uniformly with replacement, one
// rng draw per element in order. It panics if the pool is empty.
func (r *Replay) Sample(rng *rand.Rand, dst []Transition) {
	if len(r.buf) == 0 {
		panic("rl: sampling from empty replay")
	}
	for i := range dst {
		dst[i] = r.buf[rng.Intn(len(r.buf))]
	}
}
