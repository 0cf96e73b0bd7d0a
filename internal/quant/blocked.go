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
// Both micro-kernels are register-blocked over MemberBlock = 4 batch
// members: each group's weights are loaded once and used by all four
// members, so one pass over a weight block serves four members; the B mod 4
// leftover members take the one-member kernel. The last row group and the
// last column block are zero-padded past Rows and Cols, so the kernels
// cover every row and column and no scalar sweep finishes a tail. A padded
// row's weights are 0, so whatever code byte the kernel pairs with it (the
// next member's first codes, or the batch's slack bytes past its last
// member: PackedBatch keeps codeSlack of them readable) adds an exact 0,
// and a padded column's sums are computed and never written. Unlike the
// bit-plane kernels, this computes the *signed* product Σ_i q_i·u_i
// directly — no offset-binary correction term — which is exactly the fast
// path's contract (integerMVMInto). Every intermediate is an exact integer,
// so the result is bit-identical to the scalar reference on either layout;
// equivalence is asserted by FuzzBatchedMVM, which runs every layout the
// CPU executes, and the sim engine oracle tests.
//
// The kernel is gated at runtime: Blocked() returns nil unless the CPU
// reports AVX2 with OS-enabled YMM state (see cpufeat.AVX2) and the row
// count fits the int32 accumulator bound; it builds the quad layout where
// cpufeat.VNNI holds and the pair layout otherwise. Callers fall back to
// the scalar batch kernel on nil. A quad-layout matrix built on a CPU
// without VNNI (tests build every layout) runs dpQuadModel, the Go model of
// dpQuad4/dpQuad, so the quad layout and its padded tails are checked on
// every host.

// maxBlockedRows bounds the row count for which a 16-lane int32 accumulator
// cannot overflow on either layout. Each product is at most 128·255 = 32640
// in magnitude (|q| ≤ 128, u ≤ 255) and every step adds exact products —
// a pair (VPMADDWD, ≤ 65280 per lane) or a quad (VPDPBUSD, wrapping and
// never saturating, ≤ 130560), whose zero-padded rows add 0 — so every
// partial sum is bounded by rows·32640. int32 holds ⌊(2³¹−1)/32640⌋ = 65793
// rows (32897 pairs or 16449 quads, the last one padded), worst case
// −32640·65793 = −2147483520.
const maxBlockedRows = (1<<31 - 1) / (128 * 255)

// blockedColWidth is the column width of one kernel block: two YMM
// registers of eight int32 column accumulators.
const blockedColWidth = 16

// MemberBlock is the number of batch members the four-member kernels run
// per weight pass: four members × two YMM accumulators, two weight
// registers and their broadcast/product temporaries fill the 16 YMM
// registers. (Eight members on EVEX's Y16–Y31 measured no faster.)
const MemberBlock = 4

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
// quantized weight matrix, in the quad or pair layout above. The last row
// group and the last column block are zero-padded past Rows and Cols.
type BlockedMatrix struct {
	Rows, Cols int
	Blocks     int       // ⌈Cols/16⌉ 16-column blocks
	Groups     int       // ⌈Rows/layout⌉ interleaved row groups per block
	Data       []int8    // Blocks × Groups × 16·layout bytes, layout above
	scales     []float64 // ScaleFor(j) of the source matrix, per column
	layout     blockLayout
	model      bool // quad layout run on dpQuadModel (no VNNI; tests force it)
}

// Blocked returns the matrix's SIMD-blocked packing, built once and
// memoized like Packed(). Returns nil when the running CPU lacks AVX2 or
// when Rows exceeds maxBlockedRows; callers fall back to the scalar batch
// kernel. Safe for concurrent use.
func (m *Matrix) Blocked() *BlockedMatrix {
	if !hasAVX2 || m.Rows > maxBlockedRows {
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
// the writes stream. The padding past Rows and Cols keeps make's zeros.
func buildBlocked(m *Matrix, layout blockLayout) *BlockedMatrix {
	g := int(layout)
	gb := g * blockedColWidth
	nb := (m.Cols + blockedColWidth - 1) / blockedColWidth
	ng := (m.Rows + g - 1) / g
	bm := &BlockedMatrix{
		Rows: m.Rows, Cols: m.Cols,
		Blocks: nb, Groups: ng,
		Data:   make([]int8, nb*ng*gb),
		scales: make([]float64, m.Cols),
		layout: layout,
		model:  layout == layoutQuad && !hasVNNI,
	}
	for j := range bm.scales {
		bm.scales[j] = m.ScaleFor(j)
	}
	blkStride := ng * gb
	for p := 0; p < ng; p++ {
		src := m.Q[p*g*m.Cols : min((p+1)*g, m.Rows)*m.Cols]
		for bi := 0; bi < nb; bi++ {
			d := bm.Data[bi*blkStride+p*gb : bi*blkStride+(p+1)*gb]
			j0 := bi * blockedColWidth
			switch {
			case len(src) < g*m.Cols || j0+blockedColWidth > m.Cols:
				interleaveTail(d, src[j0:], m.Cols, g, min(blockedColWidth, m.Cols-j0))
			case layout == layoutQuad:
				interleave4(d, src[j0:], m.Cols)
			default:
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

// interleaveTail is interleave4/interleave2 for a group of g rows cut
// short by Rows or a block cut short by Cols: it writes d[g·j+r] =
// src[r·stride+j] for the len(src)/stride rows r and the cols columns j
// that exist, and leaves the rest of d zero.
func interleaveTail(d, src []int8, stride, g, cols int) {
	for r := 0; r*stride < len(src); r++ {
		for j, q := range src[r*stride : r*stride+cols] {
			d[g*j+r] = q
		}
	}
}

// codeSlack is how many readable bytes PackedBatch.U keeps past its B·N
// codes (Reset allocates them): the quad kernel reads a whole dword of
// codes for the last, zero-padded row group, up to three bytes past the
// last member. U16Slack is the same for the pair layout's widened codes:
// the last pair reads one uint16 past them.
const (
	codeSlack = int(layoutQuad) - 1
	U16Slack  = int(layoutPair) - 1
)

// checkBlockedShapes validates pb/out/u16 agreement, the block range and
// the slack the padded row group reads for one batched blocked MVM.
func (bm *BlockedMatrix) checkBlockedShapes(pb *PackedBatch, outLen, u16Len, b0, b1 int) {
	if pb.N != bm.Rows {
		panic(fmt.Sprintf("quant: batch of %d-row vectors against %dx%d blocked matrix", pb.N, bm.Rows, bm.Cols))
	}
	if outLen != pb.B*bm.Cols {
		panic(fmt.Sprintf("quant: batched output %d, want %dx%d", outLen, pb.B, bm.Cols))
	}
	if b0 < 0 || b0 > b1 || b1 > bm.Blocks {
		panic(fmt.Sprintf("quant: block range [%d, %d) of %d blocks", b0, b1, bm.Blocks))
	}
	if n := pb.B * pb.N; cap(pb.U) < n+codeSlack {
		panic(fmt.Sprintf("quant: %d codes with %d bytes of slack, the blocked kernel reads %d", n, cap(pb.U)-n, codeSlack))
	}
	if n := pb.B * pb.N; bm.layout == layoutPair && u16Len < n+U16Slack {
		panic(fmt.Sprintf("quant: blocked u16 %d, want %dx%d + %d", u16Len, pb.B, pb.N, U16Slack))
	}
}

// WidenCodes writes members [k0, k1) of pb's codes into u16, member-major
// like pb.U, as the uint16 lanes the pair layout's VPMADDWD consumes. The
// quad layout reads the uint8 codes in pb.U directly; there WidenCodes
// does nothing and MulBatch ignores u16.
func (bm *BlockedMatrix) WidenCodes(pb *PackedBatch, u16 []uint16, k0, k1 int) {
	if bm.layout != layoutPair {
		return
	}
	u16 = u16[k0*pb.N : k1*pb.N]
	for i, c := range pb.U[k0*pb.N : k1*pb.N] {
		u16[i] = uint16(c)
	}
}

// MulBatch computes the batched signed MVM over the 16-column blocks
// [b0, b1) and dequantizes it: for the columns j those blocks hold,
//
//	out[k*Cols+j] = (s_j·f_k) · Σ_i q[i][j]·u_k[i]
//
// where s_j is the source matrix's ScaleFor(j) and f_k member k's
// activation scale pb.Scales[k]; with relu, a result v < 0 is written as
// +0, so −0 and NaN pass as dnn.ReLU leaves them. The sum is the fast
// path's signed contract (no offset term: the offset-binary kernels' result
// minus offset·Σu) and is exact, so a unit scale writes the integer itself.
// out is member-major (length B·Cols); only the range's columns are
// written, so workers that own disjoint block ranges can share one batch
// and one output. [0, Blocks) is the whole product.
//
// pb.U must keep codeSlack readable bytes past its B·N codes (Reset does).
// On the pair layout u16 must hold the batch's codes widened by WidenCodes,
// and U16Slack more readable values; the quad layout ignores it (it may be
// nil there). MulBatch panics if either slack is missing.
//
// The weight block is the outer loop, so each block's Groups×16·layout
// bytes stay cache-resident while the members reuse them. Members go
// through the block four at a time (one weight pass per four members,
// reading member k+m's codes at a stride of one member's codes); the B mod
// 4 leftover members take one pass each.
func (bm *BlockedMatrix) MulBatch(pb *PackedBatch, out []float64, u16 []uint16, relu bool, b0, b1 int) {
	bm.checkBlockedShapes(pb, len(out), len(u16), b0, b1)
	N, B := pb.N, pb.B
	cols, ng := bm.Cols, bm.Groups
	codes := pb.U[:B*N+codeSlack]
	blkStride := ng * int(bm.layout) * blockedColWidth
	var acc [MemberBlock][blockedColWidth]int32
	for bi := b0; bi < b1; bi++ {
		j0 := bi * blockedColWidth
		j1 := min(j0+blockedColWidth, cols)
		wblk := bm.Data[bi*blkStride : (bi+1)*blkStride]
		for k := 0; k < B; {
			g := 1
			if B-k >= MemberBlock {
				g = MemberBlock
			}
			acc = [MemberBlock][blockedColWidth]int32{}
			switch {
			case bm.model:
				dpQuadModel(wblk, codes[k*N:], &acc, ng, g, N)
			case bm.layout == layoutQuad && g == MemberBlock:
				dpQuad4(&wblk[0], &codes[k*N], &acc[0][0], ng, N)
			case bm.layout == layoutQuad:
				dpQuad(&wblk[0], &codes[k*N], &acc[0][0], ng)
			case g == MemberBlock:
				maddBlock4(&wblk[0], &u16[k*N], &acc[0][0], ng, 2*N)
			default:
				maddBlock(&wblk[0], &u16[k*N], &acc[0][0], ng)
			}
			for m := 0; m < g; m++ {
				bm.finishBlock(&acc[m], out[(k+m)*cols+j0:(k+m)*cols+j1], j0, pb.Scales[k+m], relu)
			}
			k += g
		}
	}
}

// finishBlock writes one member's column sums of the block starting at
// column j0 to o, one value per real column (a padded column's sum is
// dropped), through the epilogue under the member's activation scale f.
func (bm *BlockedMatrix) finishBlock(acc *[blockedColWidth]int32, o []float64, j0 int, f float64, relu bool) {
	s := bm.scales[j0 : j0+len(o)]
	for j := range o {
		o[j] = dequant(float64(acc[j]), s[j], f, relu)
	}
}

// dpQuadModel is the Go model of dpQuad4 (members = 4) and dpQuad
// (members = 1) over the quad layout: for each of quads row quads and each
// of the 16 columns, member m's lane adds the four exact products
// w[64q+4j+r]·u[m·stride+4q+r], r = 0…3, with int32's wrapping add — the
// arithmetic VPDPBUSD performs (TestKernelsWrapLikeInt32 pins the two
// against each other on CPUs that run both). Like the kernels, it reads
// the padded last quad's codes through u's slack.
func dpQuadModel(w []int8, u []uint8, acc *[MemberBlock][blockedColWidth]int32, quads, members, stride int) {
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
