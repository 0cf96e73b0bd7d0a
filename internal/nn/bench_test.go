package nn

import (
	"fmt"
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

// criticMACs is one sample's multiply-adds through benchNet, the agent's
// 11→64→64→1 critic. BackwardBatch does as many for the gradients plus
// 64·64 + 64·1 to carry the deltas below every layer but the first. Zero
// deltas count too, so GMAC/s is nominal work per second.
const criticMACs = 11*64 + 64*64 + 64

// benchBatch returns benchNet(seed) with a Batch whose first nb inputs are
// filled, at the minibatch (64) and the typical live-target count (51,
// which leaves a sample tail past the 4-sample kernel blocks).
func benchBatch(seed int64, nb int) (*Network, *Batch) {
	n := benchNet(seed)
	s := NewBatch(n, nb)
	in := s.Input(nb)
	for i := range in {
		in[i] = 0.01 * float64(i%97)
	}
	return n, s
}

func reportGMACs(b *testing.B, macs int) {
	b.ReportMetric(float64(b.N)*float64(macs)/b.Elapsed().Seconds()/1e9, "GMAC/s")
}

func BenchmarkForwardBatch(b *testing.B) {
	for _, nb := range []int{64, 51} {
		b.Run(fmt.Sprintf("B=%d", nb), func(b *testing.B) {
			n, s := benchBatch(4, nb)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.ForwardBatch(s, nb)
			}
			reportGMACs(b, nb*criticMACs)
		})
	}
}

func BenchmarkBackwardBatch(b *testing.B) {
	for _, nb := range []int{64, 51} {
		b.Run(fmt.Sprintf("B=%d", nb), func(b *testing.B) {
			n, s := benchBatch(5, nb)
			dOut := make([]float64, nb)
			for i := range dOut {
				dOut[i] = 1
			}
			n.ForwardBatch(s, nb)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.BackwardBatch(s, dOut)
			}
			reportGMACs(b, nb*(criticMACs+64*64+64))
		})
	}
}
