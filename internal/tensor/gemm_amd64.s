//go:build amd64 && !purego

#include "textflag.h"

// One k step of one output row: broadcast a_r[k], multiply it into the two
// halves of b's row (Y8, Y9), add the products to the row's two accumulators.
// VMULPD and VADDPD stay separate so each rounds on its own, as gc's scalar
// MULSD + ADDSD does; a fused multiply-add would round once and differ.
#define ROWSTEP(arow, lo, hi) \
	VBROADCASTSD (arow)(AX*8), Y10; \
	VMULPD       Y8, Y10, Y11; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y11, lo, lo; \
	VADDPD       Y12, hi, hi

// Bias add for one row: v + bias, the second rounding step of the contract.
#define ROWBIAS(lo, hi) \
	VADDPD Y8, lo, lo; \
	VADDPD Y9, hi, hi

// ReLU for one row without a branch: mask = (v <= 0), false for NaN; then
// v = ^mask & v, so every v <= 0 (−0 included) becomes +0 and NaN keeps its
// bits — the Go clamp `if v <= 0 { v = 0 }` exactly.
#define ROWRELU(lo, hi) \
	VCMPPD  $0x12, Y8, lo, Y10; \
	VCMPPD  $0x12, Y8, hi, Y11; \
	VANDNPD lo, Y10, lo; \
	VANDNPD hi, Y11, hi

#define ROWSTORE(lo, hi) \
	VMOVUPD lo, (DI); \
	VMOVUPD hi, 32(DI); \
	ADDQ    BX, DI

// The same macros for tile4x16, in ZMM registers: b's row in Z8, Z9.
#define ZROWSTEP(arow, lo, hi) \
	VBROADCASTSD (arow)(AX*8), Z10; \
	VMULPD       Z8, Z10, Z11; \
	VMULPD       Z9, Z10, Z12; \
	VADDPD       Z11, lo, lo; \
	VADDPD       Z12, hi, hi

#define ZROWBIAS(lo, hi) \
	VADDPD Z8, lo, lo; \
	VADDPD Z9, hi, hi

// ReLU in AVX-512F, which has no VANDNPD on ZMM (that is AVX512DQ): the same
// mask = (v <= 0) into an opmask register, then a move of +0 (Z8) into the
// lanes it selects. NaN compares false and keeps its bits, −0 becomes +0.
#define ZROWRELU(lo, hi) \
	VCMPPD  $0x12, Z8, lo, K1; \
	VCMPPD  $0x12, Z8, hi, K2; \
	VMOVAPD Z8, K1, lo; \
	VMOVAPD Z8, K2, hi

#define ZROWSTORE(lo, hi) \
	VMOVUPD lo, (DI); \
	VMOVUPD hi, 64(DI); \
	ADDQ    BX, DI

// func tile4x16(a0, a1, a2, a3, b *float64, k, ldb int, d *float64, ldd int, bias *float64, relu bool)
//
// tile4x8 below, twice as wide: row r in Z(2r), Z(2r+1). The zeroing is
// VPXORQ, the AVX-512F form (VXORPD on ZMM is AVX512DQ).
TEXT ·tile4x16(SB), NOSPLIT, $0-81
	MOVQ    a0+0(FP), R8
	MOVQ    a1+8(FP), R9
	MOVQ    a2+16(FP), R10
	MOVQ    a3+24(FP), R11
	MOVQ    b+32(FP), SI
	MOVQ    k+40(FP), CX
	MOVQ    ldb+48(FP), DX
	MOVQ    d+56(FP), DI
	MOVQ    ldd+64(FP), BX
	MOVQ    bias+72(FP), R12
	MOVBLZX relu+80(FP), R13
	SHLQ    $3, DX
	SHLQ    $3, BX
	VPXORQ  Z0, Z0, Z0
	VPXORQ  Z1, Z1, Z1
	VPXORQ  Z2, Z2, Z2
	VPXORQ  Z3, Z3, Z3
	VPXORQ  Z4, Z4, Z4
	VPXORQ  Z5, Z5, Z5
	VPXORQ  Z6, Z6, Z6
	VPXORQ  Z7, Z7, Z7
	XORQ    AX, AX
	TESTQ   CX, CX
	JLE     zbias

zkloop:
	VMOVUPD (SI), Z8
	VMOVUPD 64(SI), Z9
	ZROWSTEP(R8, Z0, Z1)
	ZROWSTEP(R9, Z2, Z3)
	ZROWSTEP(R10, Z4, Z5)
	ZROWSTEP(R11, Z6, Z7)
	ADDQ    DX, SI
	INCQ    AX
	CMPQ    AX, CX
	JLT     zkloop

zbias:
	TESTQ   R12, R12
	JZ      zrelu
	VMOVUPD (R12), Z8
	VMOVUPD 64(R12), Z9
	ZROWBIAS(Z0, Z1)
	ZROWBIAS(Z2, Z3)
	ZROWBIAS(Z4, Z5)
	ZROWBIAS(Z6, Z7)

zrelu:
	TESTQ  R13, R13
	JZ     zstore
	VPXORQ Z8, Z8, Z8
	ZROWRELU(Z0, Z1)
	ZROWRELU(Z2, Z3)
	ZROWRELU(Z4, Z5)
	ZROWRELU(Z6, Z7)

zstore:
	ZROWSTORE(Z0, Z1)
	ZROWSTORE(Z2, Z3)
	ZROWSTORE(Z4, Z5)
	ZROWSTORE(Z6, Z7)
	VZEROUPPER
	RET

// func tile4x8(a0, a1, a2, a3, b *float64, k, ldb int, d *float64, ldd int, bias *float64, relu bool)
//
// Accumulators: row r in Y(2r), Y(2r+1), zeroed, held for the whole of k.
TEXT ·tile4x8(SB), NOSPLIT, $0-81
	MOVQ    a0+0(FP), R8
	MOVQ    a1+8(FP), R9
	MOVQ    a2+16(FP), R10
	MOVQ    a3+24(FP), R11
	MOVQ    b+32(FP), SI
	MOVQ    k+40(FP), CX
	MOVQ    ldb+48(FP), DX
	MOVQ    d+56(FP), DI
	MOVQ    ldd+64(FP), BX
	MOVQ    bias+72(FP), R12
	MOVBLZX relu+80(FP), R13
	SHLQ    $3, DX
	SHLQ    $3, BX
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VXORPD  Y7, Y7, Y7
	XORQ    AX, AX
	TESTQ   CX, CX
	JLE     bias

kloop:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	ROWSTEP(R8, Y0, Y1)
	ROWSTEP(R9, Y2, Y3)
	ROWSTEP(R10, Y4, Y5)
	ROWSTEP(R11, Y6, Y7)
	ADDQ    DX, SI
	INCQ    AX
	CMPQ    AX, CX
	JLT     kloop

bias:
	TESTQ   R12, R12
	JZ      relu
	VMOVUPD (R12), Y8
	VMOVUPD 32(R12), Y9
	ROWBIAS(Y0, Y1)
	ROWBIAS(Y2, Y3)
	ROWBIAS(Y4, Y5)
	ROWBIAS(Y6, Y7)

relu:
	TESTQ  R13, R13
	JZ     store
	VXORPD Y8, Y8, Y8
	ROWRELU(Y0, Y1)
	ROWRELU(Y2, Y3)
	ROWRELU(Y4, Y5)
	ROWRELU(Y6, Y7)

store:
	ROWSTORE(Y0, Y1)
	ROWSTORE(Y2, Y3)
	ROWSTORE(Y4, Y5)
	ROWSTORE(Y6, Y7)
	VZEROUPPER
	RET
