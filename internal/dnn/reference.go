package dnn

import (
	"fmt"

	"autohet/internal/mat"
)

// Float reference inference. The crossbar pipeline in package sim executes
// the same model through quantized, bit-sliced MVMs; these functions define
// the ground truth it is checked against.

// ConvRef computes a convolution layer on the float reference path. w is
// the layer's unfolded weight matrix (C_in·k² × C_out).
func ConvRef(l *Layer, in *Tensor, w *mat.Matrix) *Tensor {
	if l.Kind != Conv {
		panic("dnn: ConvRef on non-CONV layer " + l.Name)
	}
	if l.GroupCount() > 1 {
		panic("dnn: ConvRef does not support grouped convolutions: " + l.Name)
	}
	if in.C != l.InC {
		panic(fmt.Sprintf("dnn: ConvRef input channels %d, layer wants %d", in.C, l.InC))
	}
	if w.Rows != l.UnfoldedRows() || w.Cols != l.UnfoldedCols() {
		panic(fmt.Sprintf("dnn: ConvRef weights %dx%d, layer unfolds to %dx%d",
			w.Rows, w.Cols, l.UnfoldedRows(), l.UnfoldedCols()))
	}
	out := NewTensor(l.OutC, l.OutH, l.OutW)
	dst := make([]float64, l.OutC)
	for oy := 0; oy < l.OutH; oy++ {
		for ox := 0; ox < l.OutW; ox++ {
			patch := in.Patch(l, oy, ox)
			for j := 0; j < l.OutC; j++ {
				var sum float64
				for i, v := range patch {
					sum += v * w.At(i, j)
				}
				dst[j] = sum
			}
			for c, v := range dst {
				out.Set(c, oy, ox, v)
			}
		}
	}
	return out
}

// PoolMaxRef computes a max-pooling layer. Each output is the max of its
// K×K window (clipped to the tensor), taken by v > best from the window's
// top-left value in row-major order — so NaN wins only from the top-left,
// and the first of equal values (+0 before −0, or the reverse) stays.
func PoolMaxRef(l *Layer, in *Tensor) *Tensor {
	if l.Kind != Pool {
		panic("dnn: PoolMaxRef on non-POOL layer " + l.Name)
	}
	H, W, K, S := in.H, in.W, l.K, l.Stride
	outH := convOut(H, K, S, 0)
	outW := convOut(W, K, S, 0)
	out := NewTensor(in.C, outH, outW)
	for c := 0; c < in.C; c++ {
		src := in.Data[c*H*W : (c+1)*H*W]
		dst := out.Data[c*outH*outW : (c+1)*outH*outW]
		for oy := 0; oy < outH; oy++ {
			y0 := oy * S
			y1 := min(y0+K, H)
			for ox := 0; ox < outW; ox++ {
				x0 := ox * S
				x1 := min(x0+K, W)
				best := src[y0*W+x0]
				for y := y0; y < y1; y++ {
					for _, v := range src[y*W+x0 : y*W+x1] {
						if v > best {
							best = v
						}
					}
				}
				dst[oy*outW+ox] = best
			}
		}
	}
	return out
}

// FCRef computes a fully-connected layer: out[j] = Σ_i in[i]·w[i][j].
func FCRef(l *Layer, in []float64, w *mat.Matrix) []float64 {
	if l.Kind != FC {
		panic("dnn: FCRef on non-FC layer " + l.Name)
	}
	if len(in) != l.InC {
		panic(fmt.Sprintf("dnn: FCRef input %d, layer wants %d", len(in), l.InC))
	}
	out := make([]float64, l.OutC)
	for j := 0; j < l.OutC; j++ {
		var sum float64
		for i, v := range in {
			sum += v * w.At(i, j)
		}
		out[j] = sum
	}
	return out
}

// ReLU clamps negatives to zero in place and returns x.
func ReLU(x []float64) []float64 {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
	return x
}

// RunReference runs the whole model in float, with ReLU after every
// mappable layer except the last (the logits), using SyntheticWeights(seed)
// for every layer. It returns the output vector.
func RunReference(m *Model, input *Tensor, seed int64) ([]float64, error) {
	if input.C != m.InC || input.H != m.InH || input.W != m.InW {
		return nil, fmt.Errorf("dnn: input %dx%dx%d, model %q wants %dx%dx%d",
			input.C, input.H, input.W, m.Name, m.InC, m.InH, m.InW)
	}
	cur := input
	var flat []float64
	last := m.Mappable()[m.NumMappable()-1]
	for _, l := range m.Layers {
		switch l.Kind {
		case Conv:
			w := SyntheticWeights(l, seed)
			cur = ConvRef(l, cur, w)
			if l != last {
				ReLU(cur.Data)
			}
		case Pool:
			cur = PoolMaxRef(l, cur)
		case FC:
			if flat == nil {
				flat = cur.Flatten()
			}
			w := SyntheticWeights(l, seed)
			flat = FCRef(l, flat, w)
			if l != last {
				ReLU(flat)
			}
		}
	}
	if flat == nil {
		flat = cur.Flatten()
	}
	return flat, nil
}
