// Package quant implements the paper's numeric pipeline (§4.1): DNN weights
// quantized to 8 bits and spread across eight 1-bit-cell crossbars per PE
// (bit slicing), with activations streamed bit-serially through 1-bit DACs.
// Weights use offset-binary encoding — cells hold conductances, which are
// non-negative, so a signed weight q is stored as q+128 and the constant
// offset is subtracted after accumulation.
package quant

import (
	"fmt"
	"math"
	"sync"

	"autohet/internal/mat"
)

// WeightBits is the paper's default weight precision. Mixed-precision
// extensions quantize individual layers to fewer bits (QuantizeWeightsN).
const WeightBits = 8

// InputBits is the activation precision streamed through 1-bit DACs, one bit
// per cycle (so a full MVM takes InputBits crossbar read cycles).
const InputBits = 8

// offset is the offset-binary bias added to signed 8-bit weights.
const offset = 1 << (WeightBits - 1) // 128

// Matrix is a Bits-wide quantized weight matrix: w ≈ scale·q with
// q ∈ [-2^(Bits-1), 2^(Bits-1)-1]. The scale is either one symmetric
// per-tensor value (Scale) or one per output column (ColScales — the
// per-kernel granularity the hardware gets for free, because each kernel
// owns its bitline and its scale folds into that column's shift-and-add).
type Matrix struct {
	Rows, Cols int
	Bits       int
	Scale      float64
	// ColScales, when non-nil, overrides Scale per output column.
	ColScales []float64
	Q         []int8 // row-major, len Rows*Cols

	// memo caches the bit-plane stack, its packed form and the AVX2 blocked
	// packing (Planes/Packed/Blocked). Matrices are shared by pointer; the
	// memo makes re-slicing per MVM — once per sliding-window patch — a
	// one-time cost per matrix instead.
	memo struct {
		sync.Mutex
		planes  []*BitPlane
		packed  *PackedMatrix
		blocked *BlockedMatrix
	}
}

// ScaleFor returns the dequantization scale of column j.
func (m *Matrix) ScaleFor(j int) float64 {
	if m.ColScales != nil {
		return m.ColScales[j]
	}
	return m.Scale
}

// Epilogue dequantizes one member's exact integer column sums o in place,
// under the member's activation scale f: o[j] becomes (ScaleFor(j)·f)·o[j],
// and with relu a result v < 0 becomes +0 (−0 and NaN pass, as dnn.ReLU
// leaves them). BlockedMatrix.MulBatch applies the same step as it writes.
func (m *Matrix) Epilogue(o []float64, f float64, relu bool) {
	for j, v := range o {
		o[j] = dequant(v, m.ScaleFor(j), f, relu)
	}
}

// dequant is the fast kernels' epilogue for one exact sum v of a column
// with weight scale s, under activation scale f.
func dequant(v, s, f float64, relu bool) float64 {
	v = s * f * v
	if relu {
		v = reluOf(v)
	}
	return v
}

// reluOf returns +0 for v < 0 and v otherwise. It selects between bit
// patterns, which compiles to a conditional move: half the sums of a layer
// are negative in no predictable order, and a branch on the sign
// mispredicts on every other one.
func reluOf(v float64) float64 {
	b := math.Float64bits(v)
	if v < 0 {
		b = 0
	}
	return math.Float64frombits(b)
}

// PlaneCount returns the number of bit planes the matrix slices into.
func (m *Matrix) PlaneCount() int {
	if m.Bits == 0 {
		return WeightBits
	}
	return m.Bits
}

// Offset returns the matrix's offset-binary bias, 2^(Bits-1). A zero Bits
// field (struct-literal construction) means the default width.
func (m *Matrix) Offset() int {
	bits := m.Bits
	if bits == 0 {
		bits = WeightBits
	}
	return 1 << (bits - 1)
}

// QuantizeWeights quantizes w symmetrically to the default 8 bits.
func QuantizeWeights(w *mat.Matrix) *Matrix { return QuantizeWeightsN(w, WeightBits) }

// QuantizeWeightsN quantizes w symmetrically to bits ∈ [1, 8]. A zero
// matrix gets scale 1 so dequantization stays well-defined.
func QuantizeWeightsN(w *mat.Matrix, bits int) *Matrix {
	if bits < 1 || bits > 8 {
		panic(fmt.Sprintf("quant: weight bits %d outside [1,8]", bits))
	}
	off := 1 << (bits - 1)
	maxAbs := w.MaxAbs()
	maxQ := off - 1
	if maxQ == 0 {
		maxQ = 1 // 1-bit weights: q ∈ {-1, 0}; use unit scale granularity
	}
	scale := maxAbs / float64(maxQ)
	if scale == 0 {
		scale = 1
	}
	q := &Matrix{Rows: w.Rows, Cols: w.Cols, Bits: bits, Scale: scale, Q: make([]int8, len(w.Data))}
	for i, v := range w.Data {
		r := math.Round(v / scale)
		if r > float64(off-1) {
			r = float64(off - 1)
		}
		if r < float64(-off) {
			r = float64(-off)
		}
		q.Q[i] = int8(r)
	}
	return q
}

// Dequantize reconstructs the float matrix scale·Q.
func (m *Matrix) Dequantize() *mat.Matrix {
	out := mat.New(m.Rows, m.Cols)
	for i, q := range m.Q {
		out.Data[i] = m.ScaleFor(i%m.Cols) * float64(q)
	}
	return out
}

// QuantizeWeightsPerColumn quantizes w to bits with one symmetric scale per
// output column. Each column (kernel) uses its own dynamic range, which
// tightens quantization error on layers whose kernels differ in magnitude.
func QuantizeWeightsPerColumn(w *mat.Matrix, bits int) *Matrix {
	if bits < 1 || bits > 8 {
		panic(fmt.Sprintf("quant: weight bits %d outside [1,8]", bits))
	}
	off := 1 << (bits - 1)
	maxQ := off - 1
	if maxQ == 0 {
		maxQ = 1
	}
	q := &Matrix{Rows: w.Rows, Cols: w.Cols, Bits: bits,
		ColScales: make([]float64, w.Cols), Q: make([]int8, len(w.Data))}
	for j := 0; j < w.Cols; j++ {
		var maxAbs float64
		for i := 0; i < w.Rows; i++ {
			if a := math.Abs(w.At(i, j)); a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / float64(maxQ)
		if scale == 0 {
			scale = 1
		}
		q.ColScales[j] = scale
		for i := 0; i < w.Rows; i++ {
			r := math.Round(w.At(i, j) / scale)
			if r > float64(off-1) {
				r = float64(off - 1)
			}
			if r < float64(-off) {
				r = float64(-off)
			}
			q.Q[i*w.Cols+j] = int8(r)
		}
	}
	return q
}

// At returns the quantized integer at (i, j).
func (m *Matrix) At(i, j int) int8 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("quant: index (%d,%d) out of %dx%d", i, j, m.Rows, m.Cols))
	}
	return m.Q[i*m.Cols+j]
}

// BitPlane is one binary slice of a weight matrix: Bits[i*Cols+j] ∈ {0,1} is
// bit `Bit` of the offset-binary weight at (i,j). Each plane is what one of
// the eight 1-bit crossbars in a PE physically stores.
type BitPlane struct {
	Rows, Cols int
	Bit        int // significance: plane contributes 2^Bit
	Bits       []uint8
}

// Slices splits the matrix into Bits offset-binary planes, least
// significant first. Reassembling Σ_b 2^b·plane_b yields q+Offset().
func (m *Matrix) Slices() []*BitPlane {
	bits := m.Bits
	if bits == 0 {
		bits = WeightBits // zero-value matrices from old constructors
	}
	off := 1 << (bits - 1)
	planes := make([]*BitPlane, bits)
	for b := range planes {
		planes[b] = &BitPlane{Rows: m.Rows, Cols: m.Cols, Bit: b, Bits: make([]uint8, len(m.Q))}
	}
	for i, q := range m.Q {
		u := uint16(int(q) + off)
		for b := 0; b < bits; b++ {
			planes[b].Bits[i] = uint8((u >> b) & 1)
		}
	}
	return planes
}

// MulVec computes dst = planeᵀ-as-stored · x restricted to binary weights:
// dst[j] = Σ_i Bits[i][j]·x[i]. This is the analog bitline summation one
// crossbar performs for one input cycle. dst has length Cols, x length Rows.
func (p *BitPlane) MulVec(dst []float64, x []float64) {
	if len(x) != p.Rows || len(dst) != p.Cols {
		panic(fmt.Sprintf("quant: BitPlane.MulVec shapes %dx%d · %d -> %d", p.Rows, p.Cols, len(x), len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < p.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := p.Bits[i*p.Cols : (i+1)*p.Cols]
		for j, bit := range row {
			if bit != 0 {
				dst[j] += xi
			}
		}
	}
}

// Input is a bit-serial quantized activation vector: x ≈ Scale · u where
// u ∈ [0, 255] is decomposed into InputBits binary digit vectors (LSB
// first), each driven through the 1-bit DACs in one cycle.
type Input struct {
	N      int
	Scale  float64
	U      []uint8   // quantized unsigned values
	Digits [][]uint8 // Digits[b][i] = bit b of U[i]
}

// QuantizeInput quantizes a non-negative activation vector to 8 bits and
// decomposes it into bit-serial digits. Negative inputs (which cannot occur
// after ReLU, but may in tests) are clamped to zero.
func QuantizeInput(x []float64) *Input { return QuantizeInputInto(nil, x) }

// QuantizeInputInto is QuantizeInput reusing in's buffers (U, Digits) when
// their capacity allows, so callers quantizing one patch per sliding-window
// position allocate once per layer, not once per patch.
// A nil in allocates fresh. Returns the (re)used Input.
func QuantizeInputInto(in *Input, x []float64) *Input {
	if in == nil {
		in = &Input{}
	}
	var maxV float64
	for _, v := range x {
		if v > maxV {
			maxV = v
		}
	}
	scale := ActivationScale(maxV)
	in.N, in.Scale = len(x), scale
	if cap(in.U) < len(x) {
		in.U = make([]uint8, len(x))
	}
	in.U = in.U[:len(x)]
	for i, v := range x {
		in.U[i], _ = ActivationCode(v, scale)
	}
	if cap(in.Digits) < InputBits {
		in.Digits = make([][]uint8, InputBits)
	}
	in.Digits = in.Digits[:InputBits]
	for b := 0; b < InputBits; b++ {
		if cap(in.Digits[b]) < len(x) {
			in.Digits[b] = make([]uint8, len(x))
		}
		d := in.Digits[b][:len(x)]
		for i, u := range in.U {
			d[i] = (u >> b) & 1
		}
		in.Digits[b] = d
	}
	return in
}

// Dequantize reconstructs the float activation vector.
func (in *Input) Dequantize() []float64 {
	out := make([]float64, in.N)
	for i, u := range in.U {
		out[i] = in.Scale * float64(u)
	}
	return out
}

// OffsetCorrection returns the constant that must be subtracted from an
// offset-binary accumulated MVM to recover the signed result:
// offset · Σ_i u_i (in integer input units), for the default 8-bit offset.
// Mixed-precision weights use Matrix.Correction instead.
func OffsetCorrection(in *Input) float64 {
	var sum float64
	for _, u := range in.U {
		sum += float64(u)
	}
	return float64(offset) * sum
}

// Correction returns the offset-binary correction for this matrix's
// bit-width: Offset() · Σ_i u_i.
func (m *Matrix) Correction(in *Input) float64 {
	var sum float64
	for _, u := range in.U {
		sum += float64(u)
	}
	return float64(m.Offset()) * sum
}
