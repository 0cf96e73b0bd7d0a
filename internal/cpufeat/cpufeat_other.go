//go:build !amd64

package cpufeat

// AVX2 and VNNI are false off amd64: the kernels that need them are amd64
// assembly.
const (
	AVX2 = false
	VNNI = false
)
