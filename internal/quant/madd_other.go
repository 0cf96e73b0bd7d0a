//go:build !amd64

package quant

// Non-amd64 builds have no AVX2 or VNNI kernel; Matrix.Blocked() always
// returns nil and callers fall back to the scalar batch kernel.
const (
	hasAVX2 = false
	hasVNNI = false
)

func maddBlock(w *int8, u *uint16, acc *int32, rowPairs int) {
	panic("quant: maddBlock called without AVX2 support")
}

func maddBlock4(w *int8, u *uint16, acc *int32, rowPairs, stride int) {
	panic("quant: maddBlock4 called without AVX2 support")
}

func dpQuad(w *int8, u *uint8, acc *int32, quads int) {
	panic("quant: dpQuad called without AVX512-VNNI support")
}

func dpQuad4(w *int8, u *uint8, acc *int32, quads, stride int) {
	panic("quant: dpQuad4 called without AVX512-VNNI support")
}

func windowCodes(dst *uint8, src *float64, scale float64, chans, rows, width, srcRow, srcChan, dstRow, dstChan int) float64 {
	panic("quant: windowCodes called without AVX2 support")
}
