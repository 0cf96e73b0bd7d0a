package quant

import (
	"fmt"
	"math"
	"math/bits"
)

// Batched bit-matrix × bit-matrix MVM support. The single-vector packed
// kernel (PackedPlane.ColSum) walks every packed weight word once per input
// vector: serving B inputs re-reads the whole plane stack B times, and the
// per-(cycle, plane, bitline) loop overhead is paid per read. PackedBatch
// fixes both by packing a *batch* of B quantized input vectors into one
// member-interleaved digit slab, so a batched kernel sweeps each weight
// word exactly once per batch:
//
//	for each plane word cw:             // loaded once per batch
//	    for each member k:              // B reuses of cw
//	        for each input bit b:       // 8 reuses of member k's window
//	            sum[k] += popcount(cw & digits[w][k][b]) << b
//
// The arithmetic per member is identical to the single-vector kernel — the
// same popcounts, shifted and summed in a different order over exact
// integers — so batched results are bit-identical to B independent MVMs
// (asserted by FuzzBatchedMVM and the sim equivalence tests). What changes
// is the amortization: one weight-word load and one band-mask evaluation
// serve B·InputBits popcounts instead of one, exactly like the serving
// fleet amortizes per-request overhead via dynamic batching.
//
// Digit layout: Digits[(w*B+k)*InputBits+b] is word w of member k's bit-b
// digit bitset (same row→bit order as PackedPlane words). Bits are adjacent
// for one (word, member) so the 8-cycle sweep is one contiguous 64-byte
// window; members are adjacent within a word so the member loop streams
// sequentially while the weight word stays in a register.

// The 8-way unrolled cycle sweeps below are written for the fixed
// InputBits; this trips at compile time if the constant ever moves.
var _ = [1]struct{}{}[InputBits-8]

// PackedBatch is a batch of B bit-serial quantized input vectors packed
// for the batched popcount kernels. All per-member views are member-major:
// member k's codes live in U[k*N:(k+1)*N].
type PackedBatch struct {
	N     int // rows per input vector
	B     int // batch size
	Words int // ⌈N/64⌉ bitset words per member per input bit

	// Scales holds each member's activation dequantization scale (the same
	// value Input.Scale carries for a single vector).
	Scales []float64
	// USums caches Σ_i U[k][i] per member — the offset-binary correction
	// needs it once per (member, output column) batch.
	USums []float64
	// U holds the quantized unsigned codes, member-major.
	U []uint8
	// Digits is the interleaved digit slab: Digits[(w*B+k)*InputBits+b].
	Digits []uint64
}

// Member returns member k's quantized codes.
func (pb *PackedBatch) Member(k int) []uint8 { return pb.U[k*pb.N : (k+1)*pb.N] }

// DigitWord returns word w of member k's bit-b digit bitset (test hook).
func (pb *PackedBatch) DigitWord(w, k, b int) uint64 {
	return pb.Digits[(w*pb.B+k)*InputBits+b]
}

// resize grows the batch's buffers for n-row vectors in batches of b,
// reusing capacity. With digits set it zeroes the digit slab; without, the
// slab is truncated to zero length (keeping capacity) so any bit-serial
// kernel run against a codes-only batch fails fast on an index instead of
// reading stale bits.
func (pb *PackedBatch) resize(n, b int, digits bool) {
	if n <= 0 || b <= 0 {
		panic(fmt.Sprintf("quant: packed batch shape %d rows x %d members", n, b))
	}
	pb.N, pb.B = n, b
	pb.Words = (n + 63) / 64
	if cap(pb.Scales) < b {
		pb.Scales = make([]float64, b)
		pb.USums = make([]float64, b)
	}
	pb.Scales, pb.USums = pb.Scales[:b], pb.USums[:b]
	if cap(pb.U) < n*b {
		pb.U = make([]uint8, n*b)
	}
	pb.U = pb.U[:n*b]
	if !digits {
		pb.Digits = pb.Digits[:0]
		return
	}
	words := pb.Words * b * InputBits
	if cap(pb.Digits) < words {
		pb.Digits = make([]uint64, words)
	}
	pb.Digits = pb.Digits[:words]
	clear(pb.Digits)
}

// setMember installs member k's already-quantized codes (U must hold them)
// into the digit slab. The slab rows for k must be zero (resize clears the
// whole slab).
func (pb *PackedBatch) setMember(k int) {
	u := pb.Member(k)
	b := pb.B
	for i, c := range u {
		if c == 0 {
			continue
		}
		base := ((i>>6)*b + k) * InputBits
		bit := uint64(1) << uint(i&63)
		for v := c; v != 0; v &= v - 1 {
			pb.Digits[base+bits.TrailingZeros8(v)] |= bit
		}
	}
}

// quantizeMember quantizes member k's activation vector exactly as
// QuantizeInput does for a single vector (per-member scale from its own
// max, negatives clamped, round-to-nearest), caches its code sum, and —
// when digits is set — packs its digit words.
func (pb *PackedBatch) quantizeMember(k int, x []float64, digits bool) {
	var maxV float64
	for _, v := range x {
		if v > maxV {
			maxV = v
		}
	}
	scale := maxV / float64((1<<InputBits)-1)
	if scale == 0 {
		scale = 1
	}
	pb.Scales[k] = scale
	u := pb.Member(k)
	var sum float64
	for i, v := range x {
		if v < 0 {
			v = 0
		}
		r := math.Round(v / scale)
		if r > 255 {
			r = 255
		}
		u[i] = uint8(r)
		sum += r
	}
	pb.USums[k] = sum
	if digits {
		pb.setMember(k)
	}
}

// QuantizeBatchFlatInto quantizes a batch of b activation vectors stored
// member-major in one flat buffer (member k at xs[k*n:(k+1)*n]) into pb,
// reusing its buffers — the whole batch is quantized and packed in one
// pass, with no per-member Input construction. A nil pb allocates fresh.
func QuantizeBatchFlatInto(pb *PackedBatch, xs []float64, n, b int) *PackedBatch {
	return quantizeBatchFlat(pb, xs, n, b, true)
}

// QuantizeBatchFlatCodesInto is QuantizeBatchFlatInto without packing the
// bit-serial digit slab. The byte-code kernels (blocked and scalar fast
// paths) never read digit words, and packing them is the single largest
// non-kernel cost per batch; the popcount kernels panic on a codes-only
// batch rather than compute garbage (resize truncates Digits).
func QuantizeBatchFlatCodesInto(pb *PackedBatch, xs []float64, n, b int) *PackedBatch {
	return quantizeBatchFlat(pb, xs, n, b, false)
}

func quantizeBatchFlat(pb *PackedBatch, xs []float64, n, b int, digits bool) *PackedBatch {
	if len(xs) != n*b {
		panic(fmt.Sprintf("quant: flat batch %d values, want %dx%d", len(xs), b, n))
	}
	if pb == nil {
		pb = &PackedBatch{}
	}
	pb.resize(n, b, digits)
	for k := 0; k < b; k++ {
		pb.quantizeMember(k, xs[k*n:(k+1)*n], digits)
	}
	return pb
}

// QuantizeBatchInto is QuantizeBatchFlatInto over per-member slices (all
// the same length).
func QuantizeBatchInto(pb *PackedBatch, xs [][]float64) *PackedBatch {
	if len(xs) == 0 {
		panic("quant: empty batch")
	}
	if pb == nil {
		pb = &PackedBatch{}
	}
	pb.resize(len(xs[0]), len(xs), true)
	for k, x := range xs {
		if len(x) != pb.N {
			panic(fmt.Sprintf("quant: batch member %d has %d rows, member 0 has %d", k, len(x), pb.N))
		}
		pb.quantizeMember(k, x, true)
	}
	return pb
}

// PackInputs packs already-quantized Inputs (which must share N) into a
// batch, preserving their codes and scales exactly.
func PackInputs(ins []*Input) *PackedBatch {
	return PackInputsInto(nil, ins)
}

// PackInputsInto is PackInputs reusing pb's buffers.
func PackInputsInto(pb *PackedBatch, ins []*Input) *PackedBatch {
	if len(ins) == 0 {
		panic("quant: empty batch")
	}
	if pb == nil {
		pb = &PackedBatch{}
	}
	pb.resize(ins[0].N, len(ins), true)
	for k, in := range ins {
		if in.N != pb.N {
			panic(fmt.Sprintf("quant: batch member %d has %d rows, member 0 has %d", k, in.N, pb.N))
		}
		pb.Scales[k] = in.Scale
		copy(pb.Member(k), in.U)
		var sum float64
		for _, c := range in.U {
			sum += float64(c)
		}
		pb.USums[k] = sum
		pb.setMember(k)
	}
	return pb
}

// ColSumCycles accumulates, for every batch member k, the full-height
// bit-serial read of plane column j over all InputBits cycles:
//
//	acc[k] += Σ_b popcount(col_j ∧ digits_{k,b}) << b
//
// — the per-plane integer partial sum of member k's MVM, with the weight
// word loaded once per batch and reused B·InputBits times. acc has length
// ≥ B; tail bits beyond Rows are zero in both operands, so no masking.
func (p *PackedPlane) ColSumCycles(j int, pb *PackedBatch, acc []int64) {
	col := p.Col(j)
	B := pb.B
	for w, cw := range col {
		if cw == 0 {
			continue
		}
		d := pb.Digits[w*B*InputBits:]
		for k := 0; k < B; k++ {
			dk := d[k*InputBits : k*InputBits+8 : k*InputBits+8]
			s := bits.OnesCount64(cw & dk[0])
			s += bits.OnesCount64(cw&dk[1]) << 1
			s += bits.OnesCount64(cw&dk[2]) << 2
			s += bits.OnesCount64(cw&dk[3]) << 3
			s += bits.OnesCount64(cw&dk[4]) << 4
			s += bits.OnesCount64(cw&dk[5]) << 5
			s += bits.OnesCount64(cw&dk[6]) << 6
			s += bits.OnesCount64(cw&dk[7]) << 7
			acc[k] += int64(s)
		}
	}
}

// ColRangeSumCycles is ColSumCycles restricted to rows [r0, r1) — the
// batched read of a crossbar band.
func (p *PackedPlane) ColRangeSumCycles(j, r0, r1 int, pb *PackedBatch, acc []int64) {
	if r0 >= r1 {
		return
	}
	col := p.Col(j)
	w0, w1 := r0>>6, (r1-1)>>6
	first := ^uint64(0) << uint(r0&63)
	last := ^uint64(0) >> uint(63-(r1-1)&63)
	B := pb.B
	for w := w0; w <= w1; w++ {
		cw := col[w]
		if w == w0 {
			cw &= first
		}
		if w == w1 {
			cw &= last
		}
		if cw == 0 {
			continue
		}
		d := pb.Digits[w*B*InputBits:]
		for k := 0; k < B; k++ {
			dk := d[k*InputBits : k*InputBits+8 : k*InputBits+8]
			s := bits.OnesCount64(cw & dk[0])
			s += bits.OnesCount64(cw&dk[1]) << 1
			s += bits.OnesCount64(cw&dk[2]) << 2
			s += bits.OnesCount64(cw&dk[3]) << 3
			s += bits.OnesCount64(cw&dk[4]) << 4
			s += bits.OnesCount64(cw&dk[5]) << 5
			s += bits.OnesCount64(cw&dk[6]) << 6
			s += bits.OnesCount64(cw&dk[7]) << 7
			acc[k] += int64(s)
		}
	}
}

// ColRangeSumBatch computes, for every member k, the single-cycle bitline
// read of plane column j over rows [r0, r1) for input bit b:
//
//	sums[k] = popcount(col_j[r0:r1] ∧ digits_{k,b}[r0:r1])
//
// The noisy bit-exact pipeline uses it so per-conversion noise can be
// injected in the same (cycle, plane, column) order as the scalar
// reference while still loading each weight word once per batch.
func (p *PackedPlane) ColRangeSumBatch(j, r0, r1, b int, pb *PackedBatch, sums []int64) {
	B := pb.B
	for k := 0; k < B; k++ {
		sums[k] = 0
	}
	if r0 >= r1 {
		return
	}
	col := p.Col(j)
	w0, w1 := r0>>6, (r1-1)>>6
	first := ^uint64(0) << uint(r0&63)
	last := ^uint64(0) >> uint(63-(r1-1)&63)
	for w := w0; w <= w1; w++ {
		cw := col[w]
		if w == w0 {
			cw &= first
		}
		if w == w1 {
			cw &= last
		}
		if cw == 0 {
			continue
		}
		d := pb.Digits[w*B*InputBits+b:]
		for k := 0; k < B; k++ {
			sums[k] += int64(bits.OnesCount64(cw & d[k*InputBits]))
		}
	}
}

// MulBatch computes the full batched offset-binary MVM over every plane:
//
//	out[k*Cols+j] = Σ_planes 2^Bit · Σ_b 2^b · popcount(plane_j ∧ digits_{k,b})
//	             = Σ_i (q[i][j] + offset) · u_k[i]
//
// out is member-major with length B·Cols and is overwritten. This is the
// reference-shaped batched kernel the fuzzer compares against B independent
// single-vector MVMs; the sim engine's grid execution splits the same sums
// over crossbar row bands.
func (m *PackedMatrix) MulBatch(pb *PackedBatch, out []int64) {
	if pb.N != m.Rows {
		panic(fmt.Sprintf("quant: batch of %d-row vectors against %dx%d matrix", pb.N, m.Rows, m.Cols))
	}
	if len(out) != pb.B*m.Cols {
		panic(fmt.Sprintf("quant: batched output %d, want %dx%d", len(out), pb.B, m.Cols))
	}
	clear(out)
	tmp := make([]int64, pb.B)
	for j := 0; j < m.Cols; j++ {
		for _, p := range m.Planes {
			clear(tmp)
			p.ColSumCycles(j, pb, tmp)
			for k, s := range tmp {
				out[k*m.Cols+j] += s << uint(p.Bit)
			}
		}
	}
}
