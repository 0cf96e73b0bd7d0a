package nn

import (
	"math"
	"math/rand"
	"testing"
)

// refPass is the plain per-sample reference for one sample: one accumulator
// per output summed in input order, gradients added sample after sample, and
// input deltas summed row after row with zero deltas skipped.
type refPass struct {
	acts [][]float64
}

func refForward(n *Network, x []float64) refPass {
	p := refPass{acts: [][]float64{append([]float64(nil), x...)}}
	for _, l := range n.Layers {
		in := p.acts[len(p.acts)-1]
		out := make([]float64, l.W.Rows)
		for j := range out {
			var sum float64
			for k, v := range l.W.Row(j) {
				sum += v * in[k]
			}
			out[j] = l.Act.Apply(sum + l.B[j])
		}
		p.acts = append(p.acts, out)
	}
	return p
}

// backward adds this sample's gradients into gw/gb and returns dLoss/dInput.
func (p refPass) backward(n *Network, dOut []float64, gw, gb [][]float64) []float64 {
	delta := append([]float64(nil), dOut...)
	for i := len(n.Layers) - 1; i >= 0; i-- {
		l := n.Layers[i]
		in, out := p.acts[i], p.acts[i+1]
		for j := range delta {
			delta[j] *= l.Act.Derivative(out[j])
		}
		for j, d := range delta {
			if d != 0 {
				row := gw[i][j*l.W.Cols : (j+1)*l.W.Cols]
				for k := range row {
					row[k] += d * in[k]
				}
			}
			gb[i][j] += d
		}
		next := make([]float64, l.W.Cols)
		for j, d := range delta {
			if d == 0 {
				continue
			}
			for k, v := range l.W.Row(j) {
				next[k] += v * d
			}
		}
		delta = next
	}
	return delta
}

func sameBits(a, b []float64) bool { return len(a) == len(b) && diffAt(a, b) < 0 }

// diffAt returns the first index where a and b differ in bits, or −1. Any
// two NaNs count as equal: when both operands of an add or multiply are
// NaN, x86 returns the first operand's sign and payload, and the Go
// compiler picks operand order freely (the same `g += d*x` compiles either
// way round in different functions), so which NaN survives is no property
// of the code. Every other value, −0 and ±Inf included, must match exactly.
func diffAt(a, b []float64) int {
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return i
		}
	}
	return -1
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// FuzzBatchMatchesPerSample checks that the batched forward, the gradient
// backward, the full input-delta backward and the input-gradient probe all
// match the per-sample reference bit for bit (see diffAt), over random shapes,
// activations, batch sizes (every interleave tail) and dead ReLU rows. Each
// byte of layers is one layer: width 1 + b&63 (so up to 64, the agent's
// hidden width, and every tail of the 4-sample × 8-output kernel blocks)
// and activation b>>6. Half the cases also feed −0, ±Inf and NaN inputs,
// and some biases cancel sample 0's sum exactly, putting pre-activations at
// 0 (a sum that starts from +0 is never −0), so the epilogue's order (bias,
// then activation) and ReLU's handling of 0 and NaN show.
func FuzzBatchMatchesPerSample(f *testing.F) {
	for i, nb := range []uint8{1, 2, 3, 4, 5, 63, 64} {
		var layers []byte
		for j := 0; j < 1+i%3; j++ {
			layers = append(layers, byte(36+i+j)&63|byte((i+j)%4)<<6)
		}
		f.Add(int64(i), nb-1, uint8(10+i), append(layers, byte(i%3)|byte(i%4)<<6))
	}
	// The agent's actor (10→64→64→1, sigmoid) and critic (11→64→64→1,
	// linear), at the minibatch, typical live-target counts and a full
	// kernel block.
	actor := []byte{63 | byte(ReLU)<<6, 63 | byte(ReLU)<<6, byte(Sigmoid) << 6}
	critic := []byte{63 | byte(ReLU)<<6, 63 | byte(ReLU)<<6, byte(Linear) << 6}
	for _, b := range []uint8{4, 51, 63, 64} {
		f.Add(int64(b), b-1, uint8(9), actor)
		f.Add(int64(b)+1, b-1, uint8(10), critic)
	}
	f.Fuzz(func(t *testing.T, seed int64, nb, inputs uint8, layers []byte) {
		if len(layers) == 0 {
			t.Skip("a network needs at least one layer")
		}
		rng := rand.New(rand.NewSource(seed))
		b := 1 + int(nb)%64
		var specs []LayerSpec
		for _, l := range layers[:min(len(layers), 4)] {
			specs = append(specs, LayerSpec{Out: 1 + int(l&63), Act: Activation(l >> 6)})
		}
		n := NewNetwork(rng, 1+int(inputs)%16, specs...)
		for _, l := range n.Layers {
			for j := range l.B {
				if rng.Intn(4) == 0 {
					l.B[j] = -100 // a dead ReLU row: zero deltas
				}
			}
			for i := range l.GW.Data {
				l.GW.Data[i] = rng.NormFloat64()
			}
			for j := range l.GB {
				l.GB[j] = rng.NormFloat64()
			}
		}
		in, out := n.InputSize(), n.OutputSize()
		s := NewBatch(n, 64)
		x := s.Input(b)
		specials := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
		special := rng.Intn(2) == 0
		for i := range x {
			switch r := rng.Intn(32); {
			case special && r < len(specials):
				x[i] = specials[r]
			case r >= 8:
				x[i] = rng.NormFloat64()
			}
		}
		cancelBiases(rng, n, x[:in])
		dOut := make([]float64, b*out)
		for i := range dOut {
			if rng.Intn(5) > 0 {
				dOut[i] = rng.NormFloat64()
			}
		}

		// Reference: one sample at a time, gradients from the same start.
		gw := make([][]float64, len(n.Layers))
		gb := make([][]float64, len(n.Layers))
		for i, l := range n.Layers {
			gw[i] = append([]float64(nil), l.GW.Data...)
			gb[i] = append([]float64(nil), l.GB...)
		}
		passes := make([]refPass, b)
		dIn := make([][]float64, b)
		for k := range passes {
			passes[k] = refForward(n, x[k*in:(k+1)*in])
			dIn[k] = passes[k].backward(n, dOut[k*out:(k+1)*out], gw, gb)
		}

		y := n.ForwardBatch(s, b)
		for k, p := range passes {
			if !sameBits(y[k*out:(k+1)*out], p.acts[len(p.acts)-1]) {
				t.Fatalf("sample %d of %d: forward %v, reference %v", k, b, y[k*out:(k+1)*out], p.acts[len(p.acts)-1])
			}
		}

		// The probe reads one input column and touches no gradient.
		col := rng.Intn(in)
		probe := make([]float64, b)
		n.InputGradBatch(s, dOut, col, probe)
		for k := range probe {
			if !sameFloat(probe[k], dIn[k][col]) {
				t.Fatalf("sample %d of %d: probe dIn[%d] %v, reference %v", k, b, col, probe[k], dIn[k][col])
			}
		}

		n.backward(s, dOut, true, 0, in)
		for i, l := range n.Layers {
			if k := diffAt(l.GW.Data, gw[i]); k >= 0 {
				t.Fatalf("layer %d of %d samples: GW[%d] %v, reference %v", i, b, k, l.GW.Data[k], gw[i][k])
			}
			if k := diffAt(l.GB, gb[i]); k >= 0 {
				t.Fatalf("layer %d of %d samples: GB[%d] %v, reference %v", i, b, k, l.GB[k], gb[i][k])
			}
		}
		for k := range dIn {
			if !sameBits(s.deltas[0][k*in:(k+1)*in], dIn[k]) {
				t.Fatalf("sample %d of %d: input delta %v, reference %v", k, b, s.deltas[0][k*in:(k+1)*in], dIn[k])
			}
		}
	})
}

// cancelBiases sets about a quarter of every layer's biases to minus sample
// 0's sum at that output, so its pre-activation there is exactly +0. It
// walks the layers in order, since each layer's input depends on the
// biases set below it.
func cancelBiases(rng *rand.Rand, n *Network, x []float64) {
	act := append([]float64(nil), x...)
	for _, l := range n.Layers {
		next := make([]float64, l.W.Rows)
		for j := range next {
			var sum float64
			for k, v := range l.W.Row(j) {
				sum += v * act[k]
			}
			if rng.Intn(4) == 0 && !math.IsInf(sum, 0) && !math.IsNaN(sum) {
				l.B[j] = -sum
			}
			next[j] = l.Act.Apply(sum + l.B[j])
		}
		act = next
	}
}
