package cpufeat

import "testing"

// TestVNNIImpliesAVX2 checks the running host's flags: the VNNI kernels
// sit behind the AVX2 gate, so VNNI without AVX2 would be unreachable.
func TestVNNIImpliesAVX2(t *testing.T) {
	if VNNI && !AVX2 {
		t.Fatal("VNNI reported without AVX2")
	}
}

// TestDecode checks the probe's decoding on synthetic CPUID/XCR0 words: a
// missing CPUID bit or an OS that leaves a register state off disables the
// feature that needs it.
func TestDecode(t *testing.T) {
	const (
		full7b = avx2 | avx512f | avx512vl
		allX   = ymmState | avx512State
	)
	cases := []struct {
		name                          string
		maxID, ecx1, xcr0, ebx7, ecx7 uint32
		avx2, vnni                    bool
	}{
		{"avx512 vnni host", 7, osxsave, allX, full7b, avx512vnni, true, true},
		{"avx2 only", 7, osxsave, ymmState, avx2, 0, true, false},
		{"vm masks avx512 state", 7, osxsave, ymmState, full7b, avx512vnni, true, false},
		{"vm masks hi16 zmm only", 7, osxsave, ymmState | 1<<5 | 1<<6, full7b, avx512vnni, true, false},
		{"no avx512vl", 7, osxsave, allX, avx2 | avx512f, avx512vnni, true, false},
		{"no avx512f", 7, osxsave, allX, avx2 | avx512vl, avx512vnni, true, false},
		{"no vnni bit", 7, osxsave, allX, full7b, 0, true, false},
		{"no osxsave", 7, 0, allX, full7b, avx512vnni, false, false},
		{"ymm state off", 7, osxsave, avx512State, full7b, avx512vnni, false, false},
		{"leaf 7 absent", 6, osxsave, allX, full7b, avx512vnni, false, false},
		{"vnni bits without avx2", 7, osxsave, allX, avx512f | avx512vl, avx512vnni, false, false},
	}
	for _, c := range cases {
		a, v := decode(c.maxID, c.ecx1, c.xcr0, c.ebx7, c.ecx7)
		if a != c.avx2 || v != c.vnni {
			t.Errorf("%s: decode = (avx2 %v, vnni %v), want (%v, %v)", c.name, a, v, c.avx2, c.vnni)
		}
	}
}
