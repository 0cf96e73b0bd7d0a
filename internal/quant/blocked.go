package quant

import "fmt"

// SIMD-blocked signed integer kernel — the widest fast path. Weights are
// stored as signed int8 per 16-column block, with each group of consecutive
// rows interleaved column by column. The group size is the layout, chosen
// once per matrix by what the CPU executes:
//
//   - Quad layout (AVX512_VNNI + AVX512VL). Four rows per group, 64 bytes:
//
//     Data[blk][quad][4j+r] = q[4·quad+r][j0+j]    (j0 = 16·blk, r = 0…3)
//
//     One VPDPBUSD multiplies a broadcast dword of four uint8 input codes
//     (u[4p] … u[4p+3], the unsigned source) by a register of 32 weights (the
//     signed source) and adds the four exact u8×s8 products of each column
//     into its int32 lane: 32 multiply-accumulates in one instruction, with no
//     widening and no separate add (dpQuad4/dpQuad). This is the crossbar's
//     own int8×uint8 arithmetic.
//   - Pair layout (AVX2). Two rows per group, 32 bytes:
//
//     Data[blk][pair][2j+r] = q[2·pair+r][j0+j]    (r = 0, 1)
//
//     One VPMOVSXBW widens 16 bytes to 16 int16 lanes and one VPMADDWD
//     against the broadcast pair (u[2p] | u[2p+1]<<16) adds q[2p][j]·u[2p] +
//     q[2p+1][j]·u[2p+1] into 8 of 16 int32 column accumulators: 16
//     multiply-accumulates per VPMADDWD, plus a VPADDD and the codes widened
//     to uint16 once per batch (maddBlock4/maddBlock).
//
// Both micro-kernels are register-blocked over memberBlock = 4 batch
// members: each group's weights are loaded once and used by all four
// members, so one pass over a weight block serves four members; the B mod 4
// leftover members take the one-member kernel. The rows past the last full
// group (N mod 2 or N mod 4) and the Cols mod 16 trailing columns are
// finished by scalar sweeps over the source codes. Unlike the bit-plane
// kernels, this computes the *signed* product Σ_i q_i·u_i directly — no
// offset-binary correction term — which is exactly the fast path's contract
// (integerMVMInto). Every intermediate is an exact integer, so the result is
// bit-identical to the scalar reference on either layout; equivalence is
// asserted by FuzzBatchedMVM, which runs every layout the CPU executes, and
// the sim engine oracle tests.
//
// The kernel is gated at runtime: Blocked() returns nil unless the CPU
// reports AVX2 with OS-enabled YMM state (see cpufeat.AVX2), the row count
// fits the int32 accumulator bound, and the matrix is at least one block
// wide; it builds the quad layout where cpufeat.VNNI holds and the pair
// layout otherwise. Callers fall back to the scalar batch kernel on nil.
// A quad-layout matrix built on a CPU without VNNI (tests build every
// layout) runs dpQuadModel, the Go model of dpQuad4/dpQuad, so the quad
// layout, its row tails and its column tails are checked on every host.

// maxBlockedRows bounds the row count for which a 16-lane int32 accumulator
// cannot overflow on either layout. Each product is at most 128·255 = 32640
// in magnitude (|q| ≤ 128, u ≤ 255) and every step adds exact products —
// a pair (VPMADDWD, ≤ 65280 per lane), a quad (VPDPBUSD, wrapping and
// never saturating, ≤ 130560) or one scalar tail row — so every partial
// sum is bounded by rows·32640. int32 holds ⌊(2³¹−1)/32640⌋ = 65793 rows:
// 32896 pairs plus a tail row, or 16448 quads plus a tail row, worst case
// −32640·65793 = −2147483520.
const maxBlockedRows = (1<<31 - 1) / (128 * 255)

// blockedColWidth is the column width of one kernel block: two YMM
// registers of eight int32 column accumulators.
const blockedColWidth = 16

// memberBlock is the number of batch members the four-member kernels run
// per weight pass: four members × two YMM accumulators, two weight
// registers and their broadcast/product temporaries fill the 16 YMM
// registers. (Eight members on EVEX's Y16–Y31 measured no faster.)
const memberBlock = 4

// blockLayout is a BlockedMatrix's row grouping; its value is the number of
// rows per group, so one group of a block is 16·layout bytes.
type blockLayout int

const (
	layoutPair blockLayout = 2 // AVX2: maddBlock4/maddBlock (VPMADDWD)
	layoutQuad blockLayout = 4 // AVX512_VNNI: dpQuad4/dpQuad (VPDPBUSD)
)

// hostLayout is the layout Blocked builds on the running CPU.
func hostLayout() blockLayout {
	if hasVNNI {
		return layoutQuad
	}
	return layoutPair
}

// IntKernel names the integer MVM kernel the fast path runs on this CPU
// for matrices Blocked accepts: "avx512vnni" (quad layout), "avx2" (pair
// layout) or "scalar" (no blocked kernel). Kernel-dependent artifacts
// record it.
func IntKernel() string {
	switch {
	case !hasAVX2:
		return "scalar"
	case hostLayout() == layoutQuad:
		return "avx512vnni"
	default:
		return "avx2"
	}
}

// BlockedMatrix is the row-group-interleaved signed int8 packing of a
// quantized weight matrix, in the quad or pair layout above.
// The trailing Cols%16 columns and the rows past the last full group are
// not blocked; MulBatch finishes them with scalar sweeps over q.
type BlockedMatrix struct {
	Rows, Cols int
	Blocks     int       // full 16-column blocks
	Groups     int       // ⌊Rows/layout⌋ interleaved row groups per block
	Data       []int8    // Blocks × Groups × 16·layout bytes, layout above
	q          []int8    // source row-major codes, for the row/column tails
	scales     []float64 // ScaleFor(j) of the source matrix, per column
	layout     blockLayout
}

// Blocked returns the matrix's SIMD-blocked packing, built once and
// memoized like Packed(). Returns nil when the running CPU lacks AVX2, when
// Rows exceeds maxBlockedRows, or when the matrix is narrower than one
// block; callers fall back to the scalar batch kernel. Safe for concurrent
// use.
func (m *Matrix) Blocked() *BlockedMatrix {
	if !hasAVX2 || m.Rows > maxBlockedRows || m.Cols < blockedColWidth {
		return nil
	}
	m.memo.Lock()
	defer m.memo.Unlock()
	if m.memo.blocked == nil {
		m.memo.blocked = buildBlocked(m, hostLayout())
	}
	return m.memo.blocked
}

// buildBlocked packs m in the given layout. It walks the source in one
// row-major pass, a group of rows at a time, and writes each (group, block)
// destination as one contiguous 16·layout-byte run, so both the reads and
// the writes stream.
func buildBlocked(m *Matrix, layout blockLayout) *BlockedMatrix {
	g := int(layout)
	gb := g * blockedColWidth
	nb := m.Cols / blockedColWidth
	ng := m.Rows / g
	bm := &BlockedMatrix{
		Rows: m.Rows, Cols: m.Cols,
		Blocks: nb, Groups: ng,
		Data:   make([]int8, nb*ng*gb),
		q:      m.Q,
		scales: make([]float64, m.Cols),
		layout: layout,
	}
	for j := range bm.scales {
		bm.scales[j] = m.ScaleFor(j)
	}
	blkStride := ng * gb
	for p := 0; p < ng; p++ {
		src := m.Q[p*g*m.Cols : (p+1)*g*m.Cols]
		for bi := 0; bi < nb; bi++ {
			d := bm.Data[bi*blkStride+p*gb : bi*blkStride+(p+1)*gb]
			j0 := bi * blockedColWidth
			if layout == layoutQuad {
				interleave4(d, src[j0:], m.Cols)
			} else {
				interleave2(d, src[j0:], m.Cols)
			}
		}
	}
	return bm
}

// interleave4 writes d[4j+r] = src[r·stride+j] for 16 columns j and 4 rows r.
func interleave4(d, src []int8, stride int) {
	d = d[:4*blockedColWidth]
	r0 := src[:blockedColWidth]
	r1 := src[stride : stride+blockedColWidth]
	r2 := src[2*stride : 2*stride+blockedColWidth]
	r3 := src[3*stride : 3*stride+blockedColWidth]
	for j := range blockedColWidth {
		d[4*j] = r0[j]
		d[4*j+1] = r1[j]
		d[4*j+2] = r2[j]
		d[4*j+3] = r3[j]
	}
}

// interleave2 writes d[2j+r] = src[r·stride+j] for 16 columns j and 2 rows r.
func interleave2(d, src []int8, stride int) {
	d = d[:2*blockedColWidth]
	r0 := src[:blockedColWidth]
	r1 := src[stride : stride+blockedColWidth]
	for j := range blockedColWidth {
		d[2*j] = r0[j]
		d[2*j+1] = r1[j]
	}
}

// checkBlockedShapes validates pb/out/scratch agreement for one batched
// blocked MVM.
func (bm *BlockedMatrix) checkBlockedShapes(pb *PackedBatch, outLen, scratchLen int) {
	if pb.N != bm.Rows {
		panic(fmt.Sprintf("quant: batch of %d-row vectors against %dx%d blocked matrix", pb.N, bm.Rows, bm.Cols))
	}
	if outLen != pb.B*bm.Cols {
		panic(fmt.Sprintf("quant: batched output %d, want %dx%d", outLen, pb.B, bm.Cols))
	}
	if bm.layout == layoutPair && scratchLen < pb.B*pb.N {
		panic(fmt.Sprintf("quant: blocked scratch %d, want %dx%d", scratchLen, pb.B, pb.N))
	}
}

// MulBatch computes the batched signed MVM and dequantizes it:
//
//	out[k*Cols+j] = (s_j·f_k) · Σ_i q[i][j]·u_k[i]
//
// where s_j is the source matrix's ScaleFor(j) and f_k member k's
// activation scale pb.Scales[k]; with relu, a result v < 0 is written as
// +0, so −0 and NaN pass as dnn.ReLU leaves them. The sum is the fast
// path's signed contract (no offset term: the offset-binary kernels' result
// minus offset·Σu) and is exact, so a unit scale writes the integer itself.
// out is member-major (length B·Cols, overwritten). u16 is caller scratch
// of length ≥ B·N that the pair layout fills with the batch's input codes
// widened to the uint16 lanes VPMADDWD consumes; the quad layout reads the
// uint8 codes in pb.U directly and ignores it (it may be nil there). The
// weight block is the outer loop, so each block's Groups×16·layout bytes
// stay cache-resident while the members reuse them. Members go through the
// block four at a time (one weight pass per four members, reading member
// k+m's codes at a stride of one member's codes); the B mod 4 leftover
// members take one pass each.
func (bm *BlockedMatrix) MulBatch(pb *PackedBatch, out []float64, u16 []uint16, relu bool) {
	bm.checkBlockedShapes(pb, len(out), len(u16))
	N, B := pb.N, pb.B
	cols, nb, ng := bm.Cols, bm.Blocks, bm.Groups
	if bm.layout == layoutPair {
		u16 = u16[:B*N]
		for i, c := range pb.U {
			u16[i] = uint16(c)
		}
	}
	blkStride := ng * int(bm.layout) * blockedColWidth
	var acc [memberBlock][blockedColWidth]int32
	for bi := 0; bi < nb; bi++ {
		j0 := bi * blockedColWidth
		var wblk []int8
		if ng > 0 {
			wblk = bm.Data[bi*blkStride : (bi+1)*blkStride]
		}
		for k := 0; k < B; {
			g := 1
			if B-k >= memberBlock {
				g = memberBlock
			}
			acc = [memberBlock][blockedColWidth]int32{}
			switch {
			case ng == 0:
			case bm.layout == layoutQuad && !hasVNNI:
				dpQuadModel(wblk, pb.U[k*N:], &acc, ng, g, N)
			case bm.layout == layoutQuad && g == memberBlock:
				dpQuad4(&wblk[0], &pb.U[k*N], &acc[0][0], ng, N)
			case bm.layout == layoutQuad:
				dpQuad(&wblk[0], &pb.U[k*N], &acc[0][0], ng)
			case g == memberBlock:
				maddBlock4(&wblk[0], &u16[k*N], &acc[0][0], ng, 2*N)
			default:
				maddBlock(&wblk[0], &u16[k*N], &acc[0][0], ng)
			}
			for m := 0; m < g; m++ {
				bm.finishBlock(&acc[m], pb.U[(k+m)*N:(k+m+1)*N], out[(k+m)*cols+j0:(k+m)*cols+j0+blockedColWidth], j0, pb.Scales[k+m], relu)
			}
			k += g
		}
	}
	// Trailing Cols%16 columns: scalar column sweep over the source codes.
	if t0 := nb * blockedColWidth; t0 < cols {
		tw := cols - t0
		var tacc [blockedColWidth]int32
		for k := 0; k < B; k++ {
			for j := 0; j < tw; j++ {
				tacc[j] = 0
			}
			u := pb.U[k*N : (k+1)*N]
			for i, c := range u {
				if c == 0 {
					continue
				}
				uv := int32(c)
				row := bm.q[i*cols+t0 : (i+1)*cols]
				for j, q := range row {
					tacc[j] += int32(q) * uv
				}
			}
			o := out[k*cols+t0 : (k+1)*cols]
			f := pb.Scales[k]
			for j, s := range bm.scales[t0:] {
				o[j] = dequant(float64(tacc[j]), s, f, relu)
			}
		}
	}
}

// finishBlock adds one member's tail rows — those past the last full row
// group — (scalar) to its 16 column sums of the block starting at column
// j0 and writes them to o through the epilogue, under the member's
// activation scale f.
func (bm *BlockedMatrix) finishBlock(acc *[blockedColWidth]int32, u []uint8, o []float64, j0 int, f float64, relu bool) {
	for i := bm.Groups * int(bm.layout); i < len(u); i++ {
		if uv := int32(u[i]); uv != 0 {
			row := bm.q[i*bm.Cols+j0 : i*bm.Cols+j0+blockedColWidth]
			for j, q := range row {
				acc[j] += int32(q) * uv
			}
		}
	}
	s := bm.scales[j0 : j0+blockedColWidth]
	o = o[:blockedColWidth]
	for j := range o {
		o[j] = dequant(float64(acc[j]), s[j], f, relu)
	}
}

// dpQuadModel is the Go model of dpQuad4 (members = 4) and dpQuad
// (members = 1) over the quad layout: for each of quads row quads and each
// of the 16 columns, member m's lane adds the four exact products
// w[64q+4j+r]·u[m·stride+4q+r], r = 0…3, with int32's wrapping add — the
// arithmetic VPDPBUSD performs (TestKernelsWrapLikeInt32 pins the two
// against each other on CPUs that run both).
func dpQuadModel(w []int8, u []uint8, acc *[memberBlock][blockedColWidth]int32, quads, members, stride int) {
	for m := 0; m < members; m++ {
		um := u[m*stride:]
		a := &acc[m]
		for q := 0; q < quads; q++ {
			wq := w[q*4*blockedColWidth : (q+1)*4*blockedColWidth]
			u0, u1, u2, u3 := int32(um[4*q]), int32(um[4*q+1]), int32(um[4*q+2]), int32(um[4*q+3])
			for j := range a {
				a[j] += int32(wq[4*j])*u0 + int32(wq[4*j+1])*u1 + int32(wq[4*j+2])*u2 + int32(wq[4*j+3])*u3
			}
		}
	}
}
