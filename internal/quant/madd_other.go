//go:build !amd64

package quant

// Non-amd64 builds have no AVX2 kernel; Matrix.Blocked() always returns
// nil and callers fall back to the scalar batch kernel.
const hasAVX2 = false

func maddBlock(w *int8, u *uint16, acc *int32, rowPairs int) {
	panic("quant: maddBlock called without AVX2 support")
}
