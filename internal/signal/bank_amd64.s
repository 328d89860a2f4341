//go:build amd64 && !purego

#include "textflag.h"

// sizeof(Biquad): B0, B1, B2, A1, A2, z1, z2.
#define BIQUAD 56

// func bankAVX2(coef *Biquad, sections int, x, z1, z2 *float64, n, w int)
//
// Sections outer, one YMM of four channels inner. Y0–Y4 hold the section's
// b0, b1, b2, a1, a2 in every lane. Each VMULPD/VADDPD/VSUBPD rounds on its
// own and takes the operands in the order Biquad.Process's scalar code does
// (left operand of the Go expression first), so a lane is that code exactly,
// NaN payloads included; a fused multiply-add would round once and differ.
TEXT ·bankAVX2(SB), NOSPLIT, $0-56
	MOVQ coef+0(FP), SI
	MOVQ sections+8(FP), CX
	MOVQ x+16(FP), DI
	MOVQ z1+24(FP), R8
	MOVQ z2+32(FP), R9
	MOVQ n+40(FP), DX
	MOVQ w+48(FP), BX
	SHLQ $3, DX // bytes from one section's state row to the next
	SHLQ $3, BX // bytes of x this routine owns

section:
	VBROADCASTSD 0(SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 24(SI), Y3
	VBROADCASTSD 32(SI), Y4
	XORQ         AX, AX

group:
	VMOVUPD (DI)(AX*1), Y5     // v
	VMULPD  Y5, Y0, Y6         // b0·v
	VADDPD  (R8)(AX*1), Y6, Y6 // y = b0·v + z1
	VMULPD  Y5, Y1, Y7         // b1·v
	VMULPD  Y6, Y3, Y8         // a1·y
	VSUBPD  Y8, Y7, Y7         // b1·v − a1·y
	VADDPD  (R9)(AX*1), Y7, Y7 // z1 = (b1·v − a1·y) + z2
	VMULPD  Y5, Y2, Y9         // b2·v
	VMULPD  Y6, Y4, Y10        // a2·y
	VSUBPD  Y10, Y9, Y9        // z2 = b2·v − a2·y
	VMOVUPD Y6, (DI)(AX*1)
	VMOVUPD Y7, (R8)(AX*1)
	VMOVUPD Y9, (R9)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, BX
	JLT     group

	ADDQ $BIQUAD, SI
	ADDQ DX, R8
	ADDQ DX, R9
	DECQ CX
	JNZ  section
	VZEROUPPER
	RET
