//go:build amd64

package quant

import "autohet/internal/cpufeat"

// hasAVX2 gates the blocked kernel at runtime (see cpufeat.AVX2), hasVNNI
// its quad layout (see cpufeat.VNNI).
var (
	hasAVX2 = cpufeat.AVX2
	hasVNNI = cpufeat.VNNI
)

// maddBlock accumulates one member's signed MVM over one 16-column weight
// block into acc[0:16] (int32, read-modified-written): for each of rowPairs
// row pairs it broadcasts the two widened input codes at u[2p], u[2p+1] and
// multiply-adds the 32 interleaved int8 weights at w[32p:32p+32]. rowPairs
// must be ≥ 1 and small enough that lanes cannot overflow (maxBlockedRows).
// AVX2 only — callers gate on Matrix.Blocked() returning non-nil.
//
//go:noescape
func maddBlock(w *int8, u *uint16, acc *int32, rowPairs int)

// maddBlock4 is maddBlock for four batch members sharing one pass over the
// weight block: member m's code pairs start at u + m·stride bytes and its 16
// accumulators are acc[16m : 16m+16]. Each row pair's weights are widened
// once and used by all four members. Same preconditions as maddBlock.
//
//go:noescape
func maddBlock4(w *int8, u *uint16, acc *int32, rowPairs, stride int)

// dpQuad is maddBlock on the quad layout: for each of quads row quads it
// broadcasts the four input codes at u[4q:4q+4] and VPDPBUSDs them against
// the 64 interleaved int8 weights at w[64q:64q+64], accumulating into
// acc[0:16]. quads must be ≥ 1 and the row count within maxBlockedRows.
// AVX512_VNNI + AVX512VL only — callers gate on hasVNNI.
//
//go:noescape
func dpQuad(w *int8, u *uint8, acc *int32, quads int)

// dpQuad4 is dpQuad for four batch members sharing one pass over the weight
// block: member m's codes start at u + m·stride bytes and its 16
// accumulators are acc[16m : 16m+16]. Same preconditions as dpQuad.
//
//go:noescape
func dpQuad4(w *int8, u *uint8, acc *int32, quads, stride int)

// windowCodes is WindowCodes' AVX2 kernel (window_amd64.s): the codes of
// chans×rows rows of width activations under scale, read at src with the
// srcRow/srcChan strides and written at dst with the dstRow/dstChan
// strides (all in elements), and the sum of their rounded values. chans,
// rows and width must be ≥ 1, scale > 0, and both extents in bounds.
//
//go:noescape
func windowCodes(dst *uint8, src *float64, scale float64, chans, rows, width, srcRow, srcChan, dstRow, dstChan int) (sum float64)
