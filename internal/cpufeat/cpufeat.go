// Package cpufeat reports the CPU features the hand-written kernels in
// package quant (integer MVM) and package nn (float64 dense layers) need.
// It exists so the CPUID/XGETBV probe is written once; it has no
// dependencies and no settings.
//
// VNNI means the EVEX-encoded VPDPBUSD on YMM registers (AVX512_VNNI with
// AVX512VL), the only encoding Go's assembler emits for it. Hosts with only
// the VEX-encoded AVX-VNNI and no AVX-512 therefore report VNNI false and
// stay on the AVX2 kernels.
package cpufeat

// CPUID and XCR0 bits decode reads.
const (
	osxsave    = 1 << 27 // CPUID.1 ECX: OS uses XSAVE/XGETBV
	avx2       = 1 << 5  // CPUID.7.0 EBX
	avx512f    = 1 << 16 // CPUID.7.0 EBX
	avx512vl   = 1 << 31 // CPUID.7.0 EBX
	avx512vnni = 1 << 11 // CPUID.7.0 ECX

	ymmState    = 1<<1 | 1<<2        // XCR0: XMM and YMM state
	avx512State = 1<<5 | 1<<6 | 1<<7 // XCR0: opmask, ZMM0–15 upper halves, ZMM16–31
)

// decode derives the feature flags from the raw probe: the highest CPUID
// leaf, CPUID.1 ECX, XCR0 (read only when OSXSAVE is set) and CPUID.7.0
// EBX/ECX. A feature counts only when the OS also saves the register state
// its instructions touch, so a VM that masks AVX-512 state in XCR0 gets
// vnni false rather than a SIGILL; vnni implies avx2.
func decode(maxID, ecx1, xcr0, ebx7, ecx7 uint32) (hasAVX2, hasVNNI bool) {
	if maxID < 7 || ecx1&osxsave == 0 || xcr0&ymmState != ymmState {
		return false, false
	}
	hasAVX2 = ebx7&avx2 != 0
	hasVNNI = hasAVX2 && xcr0&avx512State == avx512State &&
		ebx7&(avx512f|avx512vl) == avx512f|avx512vl && ecx7&avx512vnni != 0
	return hasAVX2, hasVNNI
}
