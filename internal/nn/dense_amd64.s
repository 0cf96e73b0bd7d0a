// AVX2 float64 micro-kernels for Dense.forward, the backward passes' row
// adds and ReLU derivative, Adam's step and the soft target update (see
// dense_amd64.go). They are gated at runtime by cpufeat.AVX2;
// nothing here executes on CPUs without AVX2. They never use VFMADD: a
// fused multiply-add rounds once where the Go loops round twice.

#include "textflag.h"

// func dense4x8(wt, x, y, bias *float64, in, out, blocks int, relu bool)
//
// Per output block of 8: sample m accumulates outputs 0–3 in Y(2m) and 4–7
// in Y(2m+1), all zeroed first (VXORPD gives +0). Per input k the block's 8
// weights are loaded from its k-major panel (Y8, Y9) and each sample's
// x[m·in + k] is broadcast (Y10); VMULPD forms weight × input and VADDPD
// adds it to the accumulator. The epilogue adds the bias, then, for ReLU,
// clears the lanes where acc < 0 (VCMPPD LT_OQ then VANDNPD): −0 and NaN
// are not less than 0, so they stay, exactly as `if v < 0 { v = 0 }`. The
// panels of consecutive blocks are contiguous, so wt just keeps advancing.
TEXT ·dense4x8(SB), NOSPLIT, $0-57
	MOVQ wt+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ bias+24(FP), BX
	MOVQ in+32(FP), CX
	MOVQ out+40(FP), R10
	MOVQ blocks+48(FP), R13
	MOVBLZX relu+56(FP), R12
	MOVQ CX, R8
	SHLQ $3, R8             // sample stride of x in bytes
	LEAQ (R8)(R8*2), R9
	SHLQ $3, R10            // sample stride of y in bytes
	LEAQ (R10)(R10*2), R11
	VXORPD Y15, Y15, Y15    // the 0 ReLU compares against

block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R14
	MOVQ CX, AX

kloop:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9

	VBROADCASTSD (R14), Y10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y1, Y1

	VBROADCASTSD (R14)(R8*1), Y10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y3, Y3

	VBROADCASTSD (R14)(R8*2), Y10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y5, Y5

	VBROADCASTSD (R14)(R9*1), Y10
	VMULPD Y10, Y8, Y11
	VADDPD Y11, Y6, Y6
	VMULPD Y10, Y9, Y12
	VADDPD Y12, Y7, Y7

	ADDQ $64, DI
	ADDQ $8, R14
	DECQ AX
	JNZ kloop

	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VADDPD Y8, Y0, Y0
	VADDPD Y9, Y1, Y1
	VADDPD Y8, Y2, Y2
	VADDPD Y9, Y3, Y3
	VADDPD Y8, Y4, Y4
	VADDPD Y9, Y5, Y5
	VADDPD Y8, Y6, Y6
	VADDPD Y9, Y7, Y7
	TESTQ R12, R12
	JZ store
	VCMPPD $0x11, Y15, Y0, Y8
	VANDNPD Y0, Y8, Y0
	VCMPPD $0x11, Y15, Y1, Y9
	VANDNPD Y1, Y9, Y1
	VCMPPD $0x11, Y15, Y2, Y8
	VANDNPD Y2, Y8, Y2
	VCMPPD $0x11, Y15, Y3, Y9
	VANDNPD Y3, Y9, Y3
	VCMPPD $0x11, Y15, Y4, Y8
	VANDNPD Y4, Y8, Y4
	VCMPPD $0x11, Y15, Y5, Y9
	VANDNPD Y5, Y9, Y5
	VCMPPD $0x11, Y15, Y6, Y8
	VANDNPD Y6, Y8, Y6
	VCMPPD $0x11, Y15, Y7, Y9
	VANDNPD Y7, Y9, Y7

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R10*1)
	VMOVUPD Y3, 32(DX)(R10*1)
	VMOVUPD Y4, (DX)(R10*2)
	VMOVUPD Y5, 32(DX)(R10*2)
	VMOVUPD Y6, (DX)(R11*1)
	VMOVUPD Y7, 32(DX)(R11*1)
	ADDQ $64, DX
	ADDQ $64, BX
	DECQ R13
	JNZ block

	VZEROUPPER
	RET

// func axpy32(acc, a *float64, off *int, s *float64, n int)
//
// The 32 accumulators live in Y0–Y7, loaded from and stored back to acc:
// eight independent add chains, each taking its steps in order. Per step
// the scale is broadcast (Y8) and multiplied by the row's eight vectors,
// read straight from memory at a + 8·off[i] bytes.
TEXT ·axpy32(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ off+16(FP), BX
	MOVQ s+24(FP), DX
	MOVQ n+32(FP), CX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7

step:
	MOVQ (BX), AX
	LEAQ (SI)(AX*8), AX
	VBROADCASTSD (DX), Y8
	VMULPD (AX), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(AX), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(AX), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(AX), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(AX), Y8, Y9
	VADDPD Y9, Y4, Y4
	VMULPD 160(AX), Y8, Y10
	VADDPD Y10, Y5, Y5
	VMULPD 192(AX), Y8, Y11
	VADDPD Y11, Y6, Y6
	VMULPD 224(AX), Y8, Y12
	VADDPD Y12, Y7, Y7
	ADDQ $8, BX
	ADDQ $8, DX
	DECQ CX
	JNZ step

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func axpy8(acc, a *float64, off *int, s *float64, n int)
//
// axpy32 for an 8-column block: the accumulators are Y0 and Y1.
TEXT ·axpy8(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ off+16(FP), BX
	MOVQ s+24(FP), DX
	MOVQ n+32(FP), CX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1

step8:
	MOVQ (BX), AX
	LEAQ (SI)(AX*8), AX
	VBROADCASTSD (DX), Y8
	VMULPD (AX), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(AX), Y8, Y10
	VADDPD Y10, Y1, Y1
	ADDQ $8, BX
	ADDQ $8, DX
	DECQ CX
	JNZ step8

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET

// func axpy4(acc, a *float64, off *int, s *float64, n int)
//
// axpy32 for a 4-column block: the accumulator is Y0.
TEXT ·axpy4(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ off+16(FP), BX
	MOVQ s+24(FP), DX
	MOVQ n+32(FP), CX
	VMOVUPD (DI), Y0

step4:
	MOVQ (BX), AX
	VBROADCASTSD (DX), Y8
	VMULPD (SI)(AX*8), Y8, Y9
	VADDPD Y9, Y0, Y0
	ADDQ $8, BX
	ADDQ $8, DX
	DECQ CX
	JNZ step4

	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func reluDeriv4(d, y *float64, n int)
//
// Per 4 elements: VCMPPD GT_OQ against +0 gives all-ones lanes where y > 0
// and zero lanes elsewhere (NaN included, as an ordered compare is false
// for it); VANDPD with 1.0 turns that into the factor 1 or +0, and VMULPD
// multiplies d by it, d × factor as `d[k] *= f` does.
TEXT ·reluDeriv4(SB), NOSPLIT, $0-24
	MOVQ d+0(FP), DI
	MOVQ y+8(FP), SI
	MOVQ n+16(FP), CX
	VXORPD Y15, Y15, Y15
	MOVQ $0x3ff0000000000000, AX
	MOVQ AX, X14
	VBROADCASTSD X14, Y14   // 1.0

relu:
	VMOVUPD (SI), Y0
	VCMPPD $0x1e, Y15, Y0, Y1
	VANDPD Y14, Y1, Y1
	VMULPD (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ relu

	VZEROUPPER
	RET

// func lerp4(d, s *float64, n int, a, b float64)
//
// d[i] = a·d[i] + b·s[i] for 4n elements: two rounded multiplies, then one
// rounded add, in the Go expression's order.
TEXT ·lerp4(SB), NOSPLIT, $0-40
	MOVQ d+0(FP), DI
	MOVQ s+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Y14
	VBROADCASTSD b+32(FP), Y15

lerp:
	VMULPD (DI), Y14, Y0
	VMULPD (SI), Y15, Y1
	VADDPD Y1, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ lerp

	VZEROUPPER
	RET

// func adam4(w, m, v, gr *float64, n int, k *adamCoef)
//
// n blocks of four Adam updates, each operation of adamCoef.stepGo's
// expressions rounded on its own and in its order: g = gr·scale;
// m = β1·m + (1−β1)·g; v = β2·v + ((1−β2)·g)·g; mh = m/bc1 and vh = v/bc2
// (VDIVPD); w = w − (lr·mh)/(√vh + ε) (VSQRTPD, correctly rounded like
// math.Sqrt). The gradient is cleared in the same pass. The nine
// constants stay broadcast in Y7–Y15.
TEXT ·adam4(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), BX
	MOVQ gr+24(FP), DX
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), AX
	VBROADCASTSD 0(AX), Y7    // scale
	VBROADCASTSD 8(AX), Y8    // β1
	VBROADCASTSD 16(AX), Y9   // 1−β1
	VBROADCASTSD 24(AX), Y10  // β2
	VBROADCASTSD 32(AX), Y11  // 1−β2
	VBROADCASTSD 40(AX), Y12  // bc1
	VBROADCASTSD 48(AX), Y13  // bc2
	VBROADCASTSD 56(AX), Y14  // lr
	VBROADCASTSD 64(AX), Y15  // ε
	VXORPD Y6, Y6, Y6

adam:
	VMOVUPD (DX), Y0
	VMULPD Y7, Y0, Y0         // g·scale
	VMOVUPD Y6, (DX)
	VMULPD (SI), Y8, Y1       // β1·m
	VMULPD Y0, Y9, Y2         // (1−β1)·g
	VADDPD Y2, Y1, Y1
	VMOVUPD Y1, (SI)
	VMULPD (BX), Y10, Y3      // β2·v
	VMULPD Y0, Y11, Y4        // (1−β2)·g
	VMULPD Y0, Y4, Y4         // ·g
	VADDPD Y4, Y3, Y3
	VMOVUPD Y3, (BX)
	VDIVPD Y12, Y1, Y1        // mh = m/bc1
	VDIVPD Y13, Y3, Y3        // vh = v/bc2
	VSQRTPD Y3, Y3
	VADDPD Y15, Y3, Y3        // √vh + ε
	VMULPD Y1, Y14, Y1        // lr·mh
	VDIVPD Y3, Y1, Y1
	VMOVUPD (DI), Y2
	VSUBPD Y1, Y2, Y2         // w − step
	VMOVUPD Y2, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DX
	DECQ CX
	JNZ adam

	VZEROUPPER
	RET
