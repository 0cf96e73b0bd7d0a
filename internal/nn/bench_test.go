package nn

import (
	"fmt"
	"math"
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

// BenchmarkAdamStep times Adam.Step alone on benchNet, the agent's
// 11→64→64→1 critic, at the minibatch size. Before every step, with the
// timer stopped, "normal" refills the same seeded gradients (the moments
// follow them and stay normal), and "subnormal" leaves the gradients at
// zero and sets every moment to a seeded subnormal value: the state of
// units that get no gradient for thousands of updates, whose moments decay
// by β1 and β2 per step. There the CPU's subnormal assists slow the step,
// and no loop that keeps the bits can avoid them.
func BenchmarkAdamStep(b *testing.B) {
	for _, name := range []string{"normal", "subnormal"} {
		b.Run(name, func(b *testing.B) {
			n := benchNet(3)
			opt := NewAdam(n, 1e-3)
			rng := rand.New(rand.NewSource(3))
			subnormal := func() float64 { return math.Float64frombits(uint64(rng.Int63n(1<<52-1)) + 1) }
			var grads, moments [][]float64
			for li, l := range n.Layers {
				grads = append(grads, l.GW.Data, l.GB)
				moments = append(moments, opt.mW[li].Data, opt.vW[li].Data, opt.mB[li], opt.vB[li])
			}
			seeded := make([][]float64, len(grads))
			for i, g := range grads {
				for range g {
					seeded[i] = append(seeded[i], rng.NormFloat64())
				}
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if name == "normal" {
					for j, g := range grads {
						copy(g, seeded[j])
					}
				} else {
					for _, m := range moments {
						for j := range m {
							m[j] = subnormal()
						}
					}
				}
				b.StartTimer()
				opt.Step(n, 64)
			}
		})
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
