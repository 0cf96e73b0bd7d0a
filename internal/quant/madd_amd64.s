// Micro-kernels for the blocked signed integer MVM (see blocked.go and
// madd_amd64.go): maddBlock/maddBlock4 on the pair layout (AVX2, gated by
// cpufeat.AVX2) and dpQuad/dpQuad4 on the quad layout (AVX512_VNNI +
// AVX512VL, gated by cpufeat.VNNI). Nothing here executes on a CPU that
// lacks its kernel's feature.

#include "textflag.h"

// func maddBlock(w *int8, u *uint16, acc *int32, rowPairs int)
//
// Per row pair p: broadcast the dword (u[2p] | u[2p+1]<<16) to all eight
// dword lanes, sign-extend the pair's 32 interleaved int8 weights to two
// 16×int16 vectors, VPMADDWD each against the broadcast codes — int32 lane
// j accumulates q[2p][j]·u[2p] + q[2p+1][j]·u[2p+1] — and add into the two
// YMM column accumulators (cols 0–7 in Y0, 8–15 in Y1), which are loaded
// from and stored back to acc. Overflow is impossible by the
// maxBlockedRows bound.
TEXT ·maddBlock(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), DI
	MOVQ u+8(FP), SI
	MOVQ acc+16(FP), DX
	MOVQ rowPairs+24(FP), CX
	VMOVDQU (DX), Y0
	VMOVDQU 32(DX), Y1

pairloop:
	VPBROADCASTD (SI), Y2
	VPMOVSXBW (DI), Y3
	VPMADDWD Y2, Y3, Y3
	VPADDD Y3, Y0, Y0
	VPMOVSXBW 16(DI), Y4
	VPMADDWD Y2, Y4, Y4
	VPADDD Y4, Y1, Y1
	ADDQ $32, DI
	ADDQ $4, SI
	DECQ CX
	JNZ pairloop

	VMOVDQU Y0, (DX)
	VMOVDQU Y1, 32(DX)
	VZEROUPPER
	RET

// func maddBlock4(w *int8, u *uint16, acc *int32, rowPairs, stride int)
//
// maddBlock for four members at once. Per row pair p the 32 interleaved
// weights are sign-extended once (Y8 = cols 0–7, Y9 = cols 8–15) and
// VPMADDWD'd against each member's broadcast code pair, read at
// u + m·stride + 4p for member m = 0…3. Member m accumulates into Y(2m)
// (cols 0–7) and Y(2m+1) (cols 8–15), loaded from and stored back to
// acc[16m : 16m+16]. Same lane arithmetic and overflow bound as maddBlock.
TEXT ·maddBlock4(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), DI
	MOVQ u+8(FP), SI
	MOVQ acc+16(FP), DX
	MOVQ rowPairs+24(FP), CX
	MOVQ stride+32(FP), R8
	LEAQ (R8)(R8*2), R9
	VMOVDQU (DX), Y0
	VMOVDQU 32(DX), Y1
	VMOVDQU 64(DX), Y2
	VMOVDQU 96(DX), Y3
	VMOVDQU 128(DX), Y4
	VMOVDQU 160(DX), Y5
	VMOVDQU 192(DX), Y6
	VMOVDQU 224(DX), Y7

pairloop4:
	VPMOVSXBW (DI), Y8
	VPMOVSXBW 16(DI), Y9

	VPBROADCASTD (SI), Y10
	VPMADDWD Y10, Y8, Y11
	VPADDD Y11, Y0, Y0
	VPMADDWD Y10, Y9, Y12
	VPADDD Y12, Y1, Y1

	VPBROADCASTD (SI)(R8*1), Y13
	VPMADDWD Y13, Y8, Y14
	VPADDD Y14, Y2, Y2
	VPMADDWD Y13, Y9, Y15
	VPADDD Y15, Y3, Y3

	VPBROADCASTD (SI)(R8*2), Y10
	VPMADDWD Y10, Y8, Y11
	VPADDD Y11, Y4, Y4
	VPMADDWD Y10, Y9, Y12
	VPADDD Y12, Y5, Y5

	VPBROADCASTD (SI)(R9*1), Y13
	VPMADDWD Y13, Y8, Y14
	VPADDD Y14, Y6, Y6
	VPMADDWD Y13, Y9, Y15
	VPADDD Y15, Y7, Y7

	ADDQ $32, DI
	ADDQ $4, SI
	DECQ CX
	JNZ pairloop4

	VMOVDQU Y0, (DX)
	VMOVDQU Y1, 32(DX)
	VMOVDQU Y2, 64(DX)
	VMOVDQU Y3, 96(DX)
	VMOVDQU Y4, 128(DX)
	VMOVDQU Y5, 160(DX)
	VMOVDQU Y6, 192(DX)
	VMOVDQU Y7, 224(DX)
	VZEROUPPER
	RET

// func dpQuad(w *int8, u *uint8, acc *int32, quads int)
//
// Quad-layout kernel (AVX512_VNNI + AVX512VL, EVEX on YMM). Per row quad
// q: broadcast the dword u[4q:4q+4] (four unsigned codes) to all eight
// dword lanes and VPDPBUSD it against the quad's 64 interleaved int8
// weights (Y2 = cols 0–7, Y3 = cols 8–15) — int32 lane j accumulates
// Σ_r q[4q+r][j]·u[4q+r] exactly, wrapping, never saturating — into the two
// YMM column accumulators (cols 0–7 in Y0, 8–15 in Y1), which are loaded
// from and stored back to acc. The codes are VPDPBUSD's unsigned source
// (the middle operand), the weights its signed one (the first). Overflow is
// impossible by the maxBlockedRows bound.
TEXT ·dpQuad(SB), NOSPLIT, $0-32
	MOVQ w+0(FP), DI
	MOVQ u+8(FP), SI
	MOVQ acc+16(FP), DX
	MOVQ quads+24(FP), CX
	VMOVDQU (DX), Y0
	VMOVDQU 32(DX), Y1

quadloop:
	VMOVDQU (DI), Y2
	VMOVDQU 32(DI), Y3
	VPBROADCASTD (SI), Y4
	VPDPBUSD Y2, Y4, Y0
	VPDPBUSD Y3, Y4, Y1
	ADDQ $64, DI
	ADDQ $4, SI
	DECQ CX
	JNZ quadloop

	VMOVDQU Y0, (DX)
	VMOVDQU Y1, 32(DX)
	VZEROUPPER
	RET

// func dpQuad4(w *int8, u *uint8, acc *int32, quads, stride int)
//
// dpQuad for four members at once. Per row quad q the 64 weights are loaded
// once (Y8 = cols 0–7, Y9 = cols 8–15) and VPDPBUSD'd against each member's
// broadcast code quad, read at u + m·stride + 4q for member m = 0…3. Member
// m accumulates into Y(2m) (cols 0–7) and Y(2m+1) (cols 8–15), loaded from
// and stored back to acc[16m : 16m+16]. Same lane arithmetic and overflow
// bound as dpQuad.
TEXT ·dpQuad4(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), DI
	MOVQ u+8(FP), SI
	MOVQ acc+16(FP), DX
	MOVQ quads+24(FP), CX
	MOVQ stride+32(FP), R8
	LEAQ (R8)(R8*2), R9
	VMOVDQU (DX), Y0
	VMOVDQU 32(DX), Y1
	VMOVDQU 64(DX), Y2
	VMOVDQU 96(DX), Y3
	VMOVDQU 128(DX), Y4
	VMOVDQU 160(DX), Y5
	VMOVDQU 192(DX), Y6
	VMOVDQU 224(DX), Y7

quadloop4:
	VMOVDQU (DI), Y8
	VMOVDQU 32(DI), Y9

	VPBROADCASTD (SI), Y10
	VPDPBUSD Y8, Y10, Y0
	VPDPBUSD Y9, Y10, Y1

	VPBROADCASTD (SI)(R8*1), Y11
	VPDPBUSD Y8, Y11, Y2
	VPDPBUSD Y9, Y11, Y3

	VPBROADCASTD (SI)(R8*2), Y12
	VPDPBUSD Y8, Y12, Y4
	VPDPBUSD Y9, Y12, Y5

	VPBROADCASTD (SI)(R9*1), Y13
	VPDPBUSD Y8, Y13, Y6
	VPDPBUSD Y9, Y13, Y7

	ADDQ $64, DI
	ADDQ $4, SI
	DECQ CX
	JNZ quadloop4

	VMOVDQU Y0, (DX)
	VMOVDQU Y1, 32(DX)
	VMOVDQU Y2, 64(DX)
	VMOVDQU Y3, 96(DX)
	VMOVDQU Y4, 128(DX)
	VMOVDQU Y5, 160(DX)
	VMOVDQU Y6, 192(DX)
	VMOVDQU Y7, 224(DX)
	VZEROUPPER
	RET
