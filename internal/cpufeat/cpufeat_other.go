//go:build !amd64

package cpufeat

// AVX2 is false off amd64: the kernels that need it are amd64 assembly.
const AVX2 = false
