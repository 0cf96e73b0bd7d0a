// AVX2 window quantizer (see WindowCodes in window.go). Gated at runtime by
// cpufeat.AVX2 like the MVM kernels in madd_amd64.s; nothing here executes
// on CPUs without AVX2.

#include "textflag.h"

// windowTailMask holds, at byte offset 32·t, the VMASKMOVPD lane mask that
// selects the first t of four float64 lanes (t = 0…3).
DATA windowTailMask<>+0(SB)/8, $0
DATA windowTailMask<>+8(SB)/8, $0
DATA windowTailMask<>+16(SB)/8, $0
DATA windowTailMask<>+24(SB)/8, $0
DATA windowTailMask<>+32(SB)/8, $-1
DATA windowTailMask<>+40(SB)/8, $0
DATA windowTailMask<>+48(SB)/8, $0
DATA windowTailMask<>+56(SB)/8, $0
DATA windowTailMask<>+64(SB)/8, $-1
DATA windowTailMask<>+72(SB)/8, $-1
DATA windowTailMask<>+80(SB)/8, $0
DATA windowTailMask<>+88(SB)/8, $0
DATA windowTailMask<>+96(SB)/8, $-1
DATA windowTailMask<>+104(SB)/8, $-1
DATA windowTailMask<>+112(SB)/8, $-1
DATA windowTailMask<>+120(SB)/8, $0
GLOBL windowTailMask<>(SB), RODATA|NOPTR, $128

// windowConst holds 0.5, 1.0 and 255.0.
DATA windowConst<>+0(SB)/8, $0x3fe0000000000000
DATA windowConst<>+8(SB)/8, $0x3ff0000000000000
DATA windowConst<>+16(SB)/8, $0x406fe00000000000
GLOBL windowConst<>(SB), RODATA|NOPTR, $24

// CODES turns the four activations in v into their rounded values in Y8,
// lane by lane as ActivationCode does (clobbers v and Y9):
//
//	v = VMAXPD(+0, v)     negatives to +0; NaN and −0 pass (second source)
//	x = v / scale
//	r = RoundToEven(x)
//	r += 1.0 where x−r == 0.5 (ordered EQ: a NaN lane adds +0)
//	r = VMINPD(255, r)    saturate; NaN passes (second source)
//
// Adding +0 to an unmatched lane can turn r = −0 into +0; both give code 0
// and add +0 to a code sum that starts at +0, so nothing observable moves.
#define CODES(v) \
	VMAXPD v, Y0, v; \
	VDIVPD Y1, v, v; \
	VROUNDPD $0, v, Y8; \
	VSUBPD Y8, v, Y9; \
	VCMPPD $0, Y2, Y9, Y9; \
	VANDPD Y3, Y9, Y9; \
	VADDPD Y9, Y8, Y8; \
	VMINPD Y8, Y4, Y8

// PACK narrows the four rounded values in Y8 to four code bytes in the low
// dword of X8. VCVTTPD2DQ turns NaN into 0x80000000, which the unsigned
// saturating packs take to 0 — the code Go's amd64 uint8(NaN) gives.
#define PACK \
	VCVTTPD2DQY Y8, X8; \
	VPACKUSDW X8, X8, X8; \
	VPACKUSWB X8, X8, X8

// func windowCodes(dst *uint8, src *float64, scale float64, chans, rows, width, srcRow, srcChan, dstRow, dstChan int) (sum float64)
//
// Walks chans × rows rows of width values through CODES: each row runs four
// lanes at a time and then one VMASKMOVPD load of its width%4 tail, and
// stores exactly its width code bytes. The rounded values also add into
// four lane sums, folded once at the end; the terms are integers in
// [0, 255] or NaN, so the sum is exact in any order. A masked-off lane
// loads +0, which a positive scale keeps +0 through CODES, so it adds +0.
// SI and DI run over src and dst; after a row they step by the row stride
// less what the row's full chunks advanced, after a channel by the channel
// stride less the rows walked. chans, rows and width must be ≥ 1, scale > 0.
TEXT ·windowCodes(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	VBROADCASTSD scale+16(FP), Y1
	MOVQ chans+24(FP), CX
	MOVQ rows+32(FP), BX
	MOVQ width+40(FP), AX
	MOVQ AX, DX
	ANDQ $3, DX  // tail lanes
	SHRQ $2, AX  // full chunks per row

	// R8/R9: src advance after a row/channel; R10/R11: the same for dst.
	MOVQ srcRow+48(FP), R8
	SHLQ $3, R8
	MOVQ srcChan+56(FP), R9
	SHLQ $3, R9
	MOVQ R8, R14
	IMULQ BX, R14
	SUBQ R14, R9
	MOVQ AX, R14
	SHLQ $5, R14
	SUBQ R14, R8
	MOVQ dstRow+64(FP), R10
	MOVQ dstChan+72(FP), R11
	MOVQ R10, R14
	IMULQ BX, R14
	SUBQ R14, R11
	MOVQ AX, R14
	SHLQ $2, R14
	SUBQ R14, R10

	MOVQ DX, R14
	SHLQ $5, R14
	LEAQ windowTailMask<>(SB), R12
	VMOVDQU (R12)(R14*1), Y5
	VXORPD Y0, Y0, Y0
	VBROADCASTSD windowConst<>+0(SB), Y2
	VBROADCASTSD windowConst<>+8(SB), Y3
	VBROADCASTSD windowConst<>+16(SB), Y4
	VXORPD Y6, Y6, Y6

chanloop:
	MOVQ BX, R12

rowloop:
	MOVQ AX, R13
	TESTQ R13, R13
	JZ tail

full:
	VMOVUPD (SI), Y7
	CODES(Y7)
	VADDPD Y8, Y6, Y6
	PACK
	VMOVD X8, (DI)
	ADDQ $32, SI
	ADDQ $4, DI
	DECQ R13
	JNZ full

tail:
	TESTQ DX, DX
	JZ rowdone
	VMASKMOVPD (SI), Y5, Y7
	CODES(Y7)
	VADDPD Y8, Y6, Y6
	PACK
	VMOVD X8, R14
	CMPQ DX, $2
	JB tail1
	MOVW R14, (DI)
	JE rowdone
	SHRQ $16, R14
	MOVB R14, 2(DI)
	JMP rowdone

tail1:
	MOVB R14, (DI)

rowdone:
	ADDQ R8, SI
	ADDQ R10, DI
	DECQ R12
	JNZ rowloop
	ADDQ R9, SI
	ADDQ R11, DI
	DECQ CX
	JNZ chanloop

	VEXTRACTF128 $1, Y6, X7
	VADDPD X7, X6, X6
	VUNPCKHPD X6, X6, X7
	VADDSD X7, X6, X6
	VZEROUPPER
	MOVSD X6, sum+80(FP)
	RET
