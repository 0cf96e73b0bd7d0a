package nn

import (
	"math/rand"
	"testing"
)

func benchNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return NewNetwork(rng, 11,
		LayerSpec{Out: 64, Act: ReLU},
		LayerSpec{Out: 64, Act: ReLU},
		LayerSpec{Out: 1, Act: Linear},
	)
}

func BenchmarkForward(b *testing.B) {
	n := benchNet(1)
	x := make([]float64, 11)
	for i := range x {
		x[i] = 0.1 * float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(x)
	}
}

func BenchmarkForwardBackward(b *testing.B) {
	n := benchNet(2)
	x := make([]float64, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := n.Forward(x)
		n.Backward([]float64{out[0]})
	}
}

func BenchmarkAdamStep(b *testing.B) {
	n := benchNet(3)
	opt := NewAdam(n, 1e-3)
	x := make([]float64, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := n.Forward(x)
		n.Backward([]float64{out[0]})
		opt.Step(n, 1)
	}
}

func BenchmarkForwardBatch(b *testing.B) {
	n := benchNet(4)
	s := NewBatch(n, 64)
	in := s.Input(64)
	for i := range in {
		in[i] = 0.01 * float64(i%97)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.ForwardBatch(s, 64)
	}
}

func BenchmarkBackwardBatch(b *testing.B) {
	n := benchNet(5)
	s := NewBatch(n, 64)
	in := s.Input(64)
	for i := range in {
		in[i] = 0.01 * float64(i%97)
	}
	dOut := make([]float64, 64)
	for i := range dOut {
		dOut[i] = 1
	}
	n.ForwardBatch(s, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.BackwardBatch(s, dOut)
	}
}
