//go:build !amd64

package nn

// Non-amd64 builds have no dense kernel; cpufeat.AVX2 is false and
// Dense.forward runs the scalar loops alone.
func dense4x8(wt, x, y, bias *float64, in, out, blocks int, relu bool) {
	panic("nn: dense4x8 called without AVX2 support")
}

func axpy32(acc, a *float64, off *int, s *float64, n int) {
	panic("nn: axpy32 called without AVX2 support")
}
