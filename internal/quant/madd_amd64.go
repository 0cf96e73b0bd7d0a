//go:build amd64

package quant

// Runtime gating for the AVX2 blocked kernel. Detection is hand-rolled
// CPUID rather than a dependency: AVX2 requires leaf-7 EBX bit 5 *and* an
// OS that saves YMM state across context switches (CPUID leaf-1 ECX
// OSXSAVE, then XGETBV XCR0 bits 1–2).
var hasAVX2 = detectAVX2()

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

// maddBlock accumulates one member's signed MVM over one 16-column weight
// block into acc[0:16] (int32, read-modified-written): for each of rowPairs
// row pairs it broadcasts the two widened input codes at u[2p], u[2p+1] and
// multiply-adds the 32 interleaved int8 weights at w[32p:32p+32]. rowPairs
// must be ≥ 1 and small enough that lanes cannot overflow (maxBlockedRows).
// AVX2 only — callers gate on Matrix.Blocked() returning non-nil.
//
//go:noescape
func maddBlock(w *int8, u *uint16, acc *int32, rowPairs int)

// maddBlock4 is maddBlock for four batch members sharing one pass over the
// weight block: member m's code pairs start at u + m·stride bytes and its 16
// accumulators are acc[16m : 16m+16]. Each row pair's weights are widened
// once and used by all four members. Same preconditions as maddBlock.
//
//go:noescape
func maddBlock4(w *int8, u *uint16, acc *int32, rowPairs, stride int)
