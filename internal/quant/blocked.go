package quant

import "fmt"

// SIMD-blocked signed integer kernel — the widest fast path. The blocked
// layout feeds an AVX2 VPMADDWD micro-kernel that performs 16
// multiply-accumulates per instruction: weights are stored as signed int8
// with two consecutive rows interleaved per 16-column block,
//
//	Data[blk][pair][2j+0] = q[2p][j0+j]    (j0 = 16·blk)
//	Data[blk][pair][2j+1] = q[2p+1][j0+j]
//
// so one VPMOVSXBW widens 16 bytes to 16 int16 lanes and one VPMADDWD
// against the broadcast pair (u[2p] | u[2p+1]<<16) adds q[2p][j]·u[2p] +
// q[2p+1][j]·u[2p+1] into 8 of 16 int32 column accumulators. Unlike the
// bit-plane kernels, this computes the *signed* product Σ_i q_i·u_i
// directly — no offset-binary correction term — which is exactly the fast
// path's contract (integerMVMInto). Every intermediate is an exact integer,
// so the result is bit-identical to the scalar reference; equivalence is
// asserted by FuzzBatchedMVM and the sim engine oracle tests.
//
// The kernel is gated at runtime: Blocked() returns nil unless the CPU
// reports AVX2 with OS-enabled YMM state (see detectAVX2), the row count
// fits the int32 accumulator bound, and the matrix is at least one block
// wide. Callers fall back to the scalar batch kernel on nil.

// maxBlockedRows bounds the row count for which a 16-lane int32 accumulator
// cannot overflow: one row-pair VPMADDWD step contributes at most
// 2·128·255 = 65280 per lane (|q| ≤ 128, u ≤ 255), int32 absorbs
// ⌊(2³¹−1)/65280⌋ = 32895 such steps, and the odd tail row adds at most
// half of one more.
const maxBlockedRows = 2*((1<<31-1)/65280) + 1

// blockedColWidth is the column width of one kernel block: 16 int8 codes
// widen into sixteen 16-bit lanes of one YMM register.
const blockedColWidth = 16

// BlockedMatrix is the row-pair-interleaved signed int8 packing of a
// quantized weight matrix, consumed by the AVX2 maddBlock micro-kernel.
// The trailing Cols%16 columns and (for odd Rows) the last row are not
// blocked; MulBatch finishes them with scalar sweeps over q.
type BlockedMatrix struct {
	Rows, Cols int
	Blocks     int    // full 16-column blocks
	RowPairs   int    // ⌊Rows/2⌋ interleaved row pairs per block
	Data       []int8 // Blocks × RowPairs × 32 bytes, layout above
	q          []int8 // source row-major codes, for the row/column tails
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
		m.memo.blocked = buildBlocked(m)
	}
	return m.memo.blocked
}

func buildBlocked(m *Matrix) *BlockedMatrix {
	nb := m.Cols / blockedColWidth
	rp := m.Rows / 2
	bm := &BlockedMatrix{
		Rows: m.Rows, Cols: m.Cols,
		Blocks: nb, RowPairs: rp,
		Data: make([]int8, nb*rp*2*blockedColWidth),
		q:    m.Q,
	}
	for bi := 0; bi < nb; bi++ {
		j0 := bi * blockedColWidth
		dst := bm.Data[bi*rp*2*blockedColWidth:]
		for p := 0; p < rp; p++ {
			r0 := m.Q[(2*p)*m.Cols+j0 : (2*p)*m.Cols+j0+blockedColWidth]
			r1 := m.Q[(2*p+1)*m.Cols+j0 : (2*p+1)*m.Cols+j0+blockedColWidth]
			d := dst[p*2*blockedColWidth : (p+1)*2*blockedColWidth]
			for j := 0; j < blockedColWidth; j++ {
				d[2*j] = r0[j]
				d[2*j+1] = r1[j]
			}
		}
	}
	return bm
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
	if scratchLen < pb.B*pb.N {
		panic(fmt.Sprintf("quant: blocked scratch %d, want %dx%d", scratchLen, pb.B, pb.N))
	}
}

// MulBatch computes the batched signed MVM
//
//	out[k*Cols+j] = Σ_i q[i][j] · u_k[i]
//
// (note: no offset term — this is the fast path's signed contract, equal to
// the offset-binary kernels' result minus offset·Σu). out is member-major
// (length B·Cols, overwritten); u16 is caller scratch of length ≥ B·N that
// holds the batch's input codes widened to the uint16 lanes VPMADDWD
// consumes. The weight block is the outer loop so each block's RowPairs×32
// bytes stay cache-resident while the member loop reuses them — the batched
// amortization mirrors the bit-plane kernels.
func (bm *BlockedMatrix) MulBatch(pb *PackedBatch, out []float64, u16 []uint16) {
	bm.checkBlockedShapes(pb, len(out), len(u16))
	N, B := pb.N, pb.B
	cols, nb, rp := bm.Cols, bm.Blocks, bm.RowPairs
	u16 = u16[:B*N]
	for i, c := range pb.U {
		u16[i] = uint16(c)
	}
	blkStride := rp * 2 * blockedColWidth
	var acc [blockedColWidth]int32
	for bi := 0; bi < nb; bi++ {
		j0 := bi * blockedColWidth
		var wblk []int8
		if rp > 0 {
			wblk = bm.Data[bi*blkStride : (bi+1)*blkStride]
		}
		for k := 0; k < B; k++ {
			acc = [blockedColWidth]int32{}
			if rp > 0 {
				maddBlock(&wblk[0], &u16[k*N], &acc[0], rp)
			}
			if 2*rp < N { // odd tail row, scalar
				if uv := int32(pb.U[k*N+N-1]); uv != 0 {
					row := bm.q[(N-1)*cols+j0 : (N-1)*cols+j0+blockedColWidth]
					for j, q := range row {
						acc[j] += int32(q) * uv
					}
				}
			}
			o := out[k*cols+j0 : k*cols+j0+blockedColWidth]
			for j := range o {
				o[j] = float64(acc[j])
			}
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
			for j := range o {
				o[j] = float64(tacc[j])
			}
		}
	}
}
