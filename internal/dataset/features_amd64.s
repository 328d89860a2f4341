//go:build amd64 && !purego

#include "textflag.h"

// func accumulate8AVX2(data *float64, rows, cols int, acc *featureBlock8)
//
// Eight adjacent columns in two YMM groups, all eight accumulators in
// registers for the whole of the rows: Y0/Y1 sum, Y2/Y3 sum of squares, Y4/Y5
// minimum from +Inf, Y6/Y7 maximum from −Inf. The square is a VMULPD and its
// add a VADDPD — two roundings, as gc's scalar MULSD + ADDSD — and rows are
// taken in ascending order. VMINPD/VMAXPD return their second source unless
// the first is strictly smaller/larger (so also on a NaN and on −0 against
// +0); with the new value as first source (the middle operand here) that is
// `if v < lo { lo = v }` / `if v > hi { hi = v }`, i.e. columnMinMax.
TEXT ·accumulate8AVX2(SB), NOSPLIT, $0-32
	MOVQ         data+0(FP), SI
	MOVQ         rows+8(FP), CX
	MOVQ         cols+16(FP), DX
	MOVQ         acc+24(FP), DI
	SHLQ         $3, DX
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	VBROADCASTSD posInf<>(SB), Y4
	VMOVAPD      Y4, Y5
	VBROADCASTSD negInf<>(SB), Y6
	VMOVAPD      Y6, Y7

row:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VMULPD  Y8, Y8, Y10
	VMULPD  Y9, Y9, Y11
	VADDPD  Y10, Y2, Y2
	VADDPD  Y11, Y3, Y3
	VMINPD  Y4, Y8, Y4
	VMINPD  Y5, Y9, Y5
	VMAXPD  Y6, Y8, Y6
	VMAXPD  Y7, Y9, Y7
	ADDQ    DX, SI
	DECQ    CX
	JNZ     row

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

DATA posInf<>+0(SB)/8, $0x7ff0000000000000
GLOBL posInf<>(SB), RODATA|NOPTR, $8
DATA negInf<>+0(SB)/8, $0xfff0000000000000
GLOBL negInf<>(SB), RODATA|NOPTR, $8
