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

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzBatchMatchesPerSample checks that the batched forward, the gradient
// backward, the full input-delta backward and the input-gradient probe all
// match the per-sample reference bit for bit, over random shapes,
// activations, batch sizes (every interleave tail) and dead ReLU rows.
func FuzzBatchMatchesPerSample(f *testing.F) {
	for i, nb := range []uint8{1, 2, 3, 4, 5, 63, 64} {
		f.Add(int64(i), nb, uint8(10+i), uint8(37+i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, seed int64, nb, inputs, hidden, depth uint8) {
		rng := rand.New(rand.NewSource(seed))
		b := 1 + int(nb)%64
		acts := []Activation{Linear, ReLU, Tanh, Sigmoid}
		var specs []LayerSpec
		for i := 0; i < 1+int(depth)%3; i++ {
			specs = append(specs, LayerSpec{Out: 1 + int(hidden)%40 + i, Act: acts[rng.Intn(len(acts))]})
		}
		specs = append(specs, LayerSpec{Out: 1 + rng.Intn(3), Act: acts[rng.Intn(len(acts))]})
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
		for i := range x {
			if rng.Intn(5) > 0 {
				x[i] = rng.NormFloat64()
			}
		}
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
			if math.Float64bits(probe[k]) != math.Float64bits(dIn[k][col]) {
				t.Fatalf("sample %d of %d: probe dIn[%d] %v, reference %v", k, b, col, probe[k], dIn[k][col])
			}
		}

		n.backward(s, dOut, true, 0, in)
		for i, l := range n.Layers {
			if !sameBits(l.GW.Data, gw[i]) || !sameBits(l.GB, gb[i]) {
				t.Fatalf("layer %d of %d samples: gradients differ from the reference", i, b)
			}
		}
		for k := range dIn {
			if !sameBits(s.deltas[0][k*in:(k+1)*in], dIn[k]) {
				t.Fatalf("sample %d of %d: input delta %v, reference %v", k, b, s.deltas[0][k*in:(k+1)*in], dIn[k])
			}
		}
	})
}
