//go:build amd64

package cpufeat

// AVX2 reports whether the CPU executes AVX2 and the OS saves YMM state
// across context switches; VNNI whether it also executes EVEX VPDPBUSD on
// YMM registers with AVX-512 state OS-enabled (see decode). Detection is
// hand-rolled CPUID rather than a dependency.
var AVX2, VNNI = detect()

func detect() (hasAVX2, hasVNNI bool) {
	maxID, _, _, _ := cpuidlow(0, 0)
	if maxID < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuidlow(1, 0)
	var xcr0 uint32
	if ecx1&osxsave != 0 {
		xcr0, _ = xgetbv0()
	}
	_, ebx7, ecx7, _ := cpuidlow(7, 0)
	return decode(maxID, ecx1, xcr0, ebx7, ecx7)
}

//go:noescape
func cpuidlow(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)
