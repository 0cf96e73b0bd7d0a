//go:build !amd64

package nn

// Non-amd64 builds have no kernels; cpufeat.AVX2 is false and the Go loops
// run alone.
func dense4x8(wt, x, y, bias *float64, in, out, blocks int, relu bool) { noKernel() }

func axpy32(acc, a *float64, off *int, s *float64, n int) { noKernel() }

func axpy8(acc, a *float64, off *int, s *float64, n int) { noKernel() }

func axpy4(acc, a *float64, off *int, s *float64, n int) { noKernel() }

func reluDeriv4(d, y *float64, n int) { noKernel() }

func lerp4(d, s *float64, n int, a, b float64) { noKernel() }

func adam4(w, m, v, gr *float64, n int, k *adamCoef) { noKernel() }

func noKernel() { panic("nn: AVX2 kernel called without AVX2 support") }
