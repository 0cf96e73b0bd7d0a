package quant

import (
	"fmt"
	"math"
	"math/bits"
)

// Batched bit-matrix × bit-matrix MVM support. A kernel that reads one
// input vector at a time walks every packed weight word once per vector:
// serving B inputs re-reads the whole plane stack B times, and the
// per-(cycle, plane, bitline) loop overhead is paid per read. PackedBatch
// fixes both by packing a *batch* of B quantized input vectors into one
// member-interleaved digit slab, so a batched kernel sweeps each weight
// word exactly once per batch (a single vector is a one-member batch):
//
//	for each plane word cw:             // loaded once per batch
//	    for each member k:              // B reuses of cw
//	        for each input bit b:       // 8 reuses of member k's window
//	            sum[k] += popcount(cw & digits[w][k][b]) << b
//
// The arithmetic per member is identical to a one-vector byte loop — the
// same bit-AND counts, shifted and summed in a different order over exact
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
	// U holds the quantized unsigned codes, member-major. Its capacity
	// keeps codeSlack readable bytes past the B·N codes, which the blocked
	// kernel's padded last row group reads (BlockedMatrix.MulBatch).
	U []uint8
	// Digits is the interleaved digit slab: Digits[(w*B+k)*InputBits+b].
	Digits []uint64
}

// Member returns member k's quantized codes.
func (pb *PackedBatch) Member(k int) []uint8 { return pb.U[k*pb.N : (k+1)*pb.N] }

// Sub returns members [k0, k1) of pb as a codes-only batch sharing pb's
// codes, scales and code sums (and U's slack). It has no digit slab.
func (pb *PackedBatch) Sub(k0, k1 int) PackedBatch {
	return PackedBatch{N: pb.N, B: k1 - k0, Words: pb.Words,
		Scales: pb.Scales[k0:k1], USums: pb.USums[k0:k1], U: pb.U[k0*pb.N : k1*pb.N]}
}

// DigitWord returns word w of member k's bit-b digit bitset (test hook).
func (pb *PackedBatch) DigitWord(w, k, b int) uint64 {
	return pb.Digits[(w*pb.B+k)*InputBits+b]
}

// Reset shapes pb for b members of n-row vectors, reusing capacity. With
// digits set it keeps a zeroed digit slab for the bit-serial popcount
// kernels; without, the slab is truncated to zero length (keeping capacity)
// so any bit-serial kernel run against a codes-only batch fails fast on an
// index instead of reading stale bits. Members are then filled by
// QuantizeMember, or by writing Member(k) and calling SetMember.
func (pb *PackedBatch) Reset(n, b int, digits bool) {
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
	if cap(pb.U) < n*b+codeSlack {
		pb.U = make([]uint8, n*b, n*b+codeSlack)
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

// SetMember completes member k, whose codes the caller has written into
// Member(k): it records the member's scale and code sum and, when the batch
// carries a digit slab, packs the member's digit words. The slab rows for k
// must be zero (Reset clears the whole slab).
func (pb *PackedBatch) SetMember(k int, scale, usum float64) {
	pb.Scales[k] = scale
	pb.USums[k] = usum
	if len(pb.Digits) == 0 {
		return
	}
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

// ActivationScale is the dequantization scale of an activation vector
// whose maximum, taken from 0 by v > max (so NaN never wins and −0 never
// replaces +0), is maxV: maxV/255, or 1 for an all-nonpositive vector.
func ActivationScale(maxV float64) float64 {
	scale := maxV / float64((1<<InputBits)-1)
	if scale == 0 {
		return 1
	}
	return scale
}

// ActivationCode quantizes one activation under scale — negatives clamp
// to 0, round to nearest (half away from zero), saturate at 255 — and
// returns the code together with its rounded value, the term a member's
// code sum accumulates (NaN for a NaN activation, so the sum is NaN too).
//
// It rounds with math.RoundToEven — one instruction on amd64, where
// math.Round is a branchy bit routine — and moves the exact ties up:
// x−RoundToEven(x) is exact for x ≥ 0 and equals 0.5 only when x is a tie
// RoundToEven took down, so the result equals math.Round(x) for every
// x ≥ 0, −0 and NaN (TestActivationCodeMatchesRound).
func ActivationCode(v, scale float64) (uint8, float64) {
	if v < 0 {
		v = 0
	}
	x := v / scale
	r := math.RoundToEven(x)
	if x-r == 0.5 {
		r++
	}
	if r > 255 {
		r = 255
	}
	return uint8(r), r
}

// QuantizeMember quantizes member k's activation vector x exactly as
// QuantizeInput does for a single vector (per-member scale from its own
// max, negatives clamped, round-to-nearest), caches its code sum, and —
// when the batch carries a digit slab — packs its digit words.
func (pb *PackedBatch) QuantizeMember(k int, x []float64) {
	if len(x) != pb.N {
		panic(fmt.Sprintf("quant: member of %d values, batch rows %d", len(x), pb.N))
	}
	var maxV float64
	for _, v := range x {
		if v > maxV {
			maxV = v
		}
	}
	scale := ActivationScale(maxV)
	u := pb.Member(k)
	var sum float64
	for i, v := range x {
		c, r := ActivationCode(v, scale)
		u[i] = c
		sum += r
	}
	pb.SetMember(k, scale, sum)
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
// batch rather than compute garbage (Reset truncates Digits), and
// sim.ExecuteMVMBatch rejects one with an error.
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
	pb.Reset(n, b, digits)
	for k := 0; k < b; k++ {
		pb.QuantizeMember(k, xs[k*n:(k+1)*n])
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
	pb.Reset(ins[0].N, len(ins), true)
	for k, in := range ins {
		if in.N != pb.N {
			panic(fmt.Sprintf("quant: batch member %d has %d rows, member 0 has %d", k, in.N, pb.N))
		}
		copy(pb.Member(k), in.U)
		var sum float64
		for _, c := range in.U {
			sum += float64(c)
		}
		pb.SetMember(k, in.Scale, sum)
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
// reference-shaped batched kernel the fuzzer compares against the integer
// reference; the sim engine's grid execution splits the same sums over
// crossbar row bands.
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
