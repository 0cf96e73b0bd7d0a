//go:build amd64

package cpufeat

// AVX2 reports whether the CPU executes AVX2 and the OS saves YMM state
// across context switches. Detection is hand-rolled CPUID rather than a
// dependency: AVX2 requires leaf-7 EBX bit 5 *and* an OS that enabled YMM
// state (CPUID leaf-1 ECX OSXSAVE, then XGETBV XCR0 bits 1–2).
var AVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuidlow(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuidlow(1, 0)
	const osxsave = 1 << 27
	if c&osxsave == 0 {
		return false
	}
	if eax, _ := xgetbv0(); eax&0x6 != 0x6 { // XMM and YMM state OS-enabled
		return false
	}
	_, b, _, _ := cpuidlow(7, 0)
	return b&(1<<5) != 0 // AVX2
}

//go:noescape
func cpuidlow(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)
