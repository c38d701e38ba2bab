// AVX2 and FMA float64 kernels (see kernels_amd64.go for the contracts).
//
// Bit-exactness discipline: the AVX2 bodies use separate VMULPD/VADDPD so
// every element is rounded twice, exactly as the generic Go code compiles
// on the amd64 v1 baseline; only the *FMA bodies (reachable through the
// AllowFMA opt-in alone) fuse the multiply-add into a single rounding.
// Dot reproduces the generic four-partial-sum grouping: vector lane j holds
// the generic s_j, the lanes reduce in the fixed order ((s0+s1)+s2)+s3, and
// the <4 remainder accumulates sequentially.
//
// All entry points take base pointers plus an element count n >= 1.

#include "textflag.h"

// func axpyAVX2(alpha float64, x, y *float64, n int)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	XORQ AX, AX

axpy8:
	CMPQ CX, $8
	JLT  axpy4
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  axpy8

axpy4:
	CMPQ CX, $4
	JLT  axpy1
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	SUBQ $4, CX

axpy1:
	TESTQ CX, CX
	JEQ   axpydone
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	DECQ CX
	JMP  axpy1

axpydone:
	VZEROUPPER
	RET

// func axpyFMA(alpha float64, x, y *float64, n int)
TEXT ·axpyFMA(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	XORQ AX, AX

faxpy8:
	CMPQ CX, $8
	JLT  faxpy4
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VFMADD231PD (SI)(AX*8), Y0, Y1
	VFMADD231PD 32(SI)(AX*8), Y0, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  faxpy8

faxpy4:
	CMPQ CX, $4
	JLT  faxpy1
	VMOVUPD (DI)(AX*8), Y1
	VFMADD231PD (SI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	SUBQ $4, CX

faxpy1:
	TESTQ CX, CX
	JEQ   faxpydone
	VMOVSD (DI)(AX*8), X1
	VFMADD231SD (SI)(AX*8), X0, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	DECQ CX
	JMP  faxpy1

faxpydone:
	VZEROUPPER
	RET

// func axpyToAVX2(dst *float64, alpha float64, x, y *float64, n int)
TEXT ·axpyToAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DX
	VBROADCASTSD alpha+8(FP), Y0
	MOVQ x+16(FP), SI
	MOVQ y+24(FP), DI
	MOVQ n+32(FP), CX
	XORQ AX, AX

axpyto4:
	CMPQ CX, $4
	JLT  axpyto1
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DX)(AX*8)
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  axpyto4

axpyto1:
	TESTQ CX, CX
	JEQ   axpytodone
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DX)(AX*8)
	INCQ AX
	DECQ CX
	JMP  axpyto1

axpytodone:
	VZEROUPPER
	RET

// func axpyToFMA(dst *float64, alpha float64, x, y *float64, n int)
TEXT ·axpyToFMA(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DX
	VBROADCASTSD alpha+8(FP), Y0
	MOVQ x+16(FP), SI
	MOVQ y+24(FP), DI
	MOVQ n+32(FP), CX
	XORQ AX, AX

faxpyto4:
	CMPQ CX, $4
	JLT  faxpyto1
	VMOVUPD (DI)(AX*8), Y1
	VFMADD231PD (SI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DX)(AX*8)
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  faxpyto4

faxpyto1:
	TESTQ CX, CX
	JEQ   faxpytodone
	VMOVSD (DI)(AX*8), X1
	VFMADD231SD (SI)(AX*8), X0, X1
	VMOVSD X1, (DX)(AX*8)
	INCQ AX
	DECQ CX
	JMP  faxpyto1

faxpytodone:
	VZEROUPPER
	RET

// func scaleToAVX2(dst *float64, alpha float64, x *float64, n int)
TEXT ·scaleToAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DX
	VBROADCASTSD alpha+8(FP), Y0
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	XORQ AX, AX

scaleto4:
	CMPQ CX, $4
	JLT  scaleto1
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (DX)(AX*8)
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  scaleto4

scaleto1:
	TESTQ CX, CX
	JEQ   scaletodone
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (DX)(AX*8)
	INCQ AX
	DECQ CX
	JMP  scaleto1

scaletodone:
	VZEROUPPER
	RET

// func addAVX2(dst, x *float64, n int)
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

add4:
	CMPQ CX, $4
	JLT  add1
	VMOVUPD (DI)(AX*8), Y1
	VADDPD  (SI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  add4

add1:
	TESTQ CX, CX
	JEQ   adddone
	VMOVSD (DI)(AX*8), X1
	VADDSD (SI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	DECQ CX
	JMP  add1

adddone:
	VZEROUPPER
	RET

// func scaleAVX2(alpha float64, x *float64, n int)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-24
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

scale4:
	CMPQ CX, $4
	JLT  scale1
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VMOVUPD Y1, (SI)(AX*8)
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  scale4

scale1:
	TESTQ CX, CX
	JEQ   scaledone
	VMOVSD (SI)(AX*8), X1
	VMULSD X0, X1, X1
	VMOVSD X1, (SI)(AX*8)
	INCQ AX
	DECQ CX
	JMP  scale1

scaledone:
	VZEROUPPER
	RET

// func dotAVX2(x, y *float64, n int) float64
TEXT ·dotAVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	VXORPD Y1, Y1, Y1 // lane j accumulates the generic partial s_j

dot4:
	CMPQ CX, $4
	JLT  dotreduce
	VMOVUPD (SI)(AX*8), Y2
	VMULPD  (DI)(AX*8), Y2, Y2
	VADDPD  Y2, Y1, Y1
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  dot4

dotreduce:
	// s = ((s0+s1)+s2)+s3, the generic reduction order.
	VEXTRACTF128 $1, Y1, X2 // X2 = (s2, s3)
	VPERMILPD $1, X1, X3    // X3 low = s1
	VADDSD X3, X1, X1       // s0+s1
	VADDSD X2, X1, X1       // +s2
	VPERMILPD $1, X2, X2    // low = s3
	VADDSD X2, X1, X1       // +s3

dot1:
	TESTQ CX, CX
	JEQ   dotdone
	VMOVSD (SI)(AX*8), X2
	VMULSD (DI)(AX*8), X2, X2
	VADDSD X2, X1, X1
	INCQ AX
	DECQ CX
	JMP  dot1

dotdone:
	VMOVSD X1, ret+24(FP)
	VZEROUPPER
	RET

// func dotFMA(x, y *float64, n int) float64
TEXT ·dotFMA(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	VXORPD Y1, Y1, Y1

fdot4:
	CMPQ CX, $4
	JLT  fdotreduce
	VMOVUPD (SI)(AX*8), Y2
	VFMADD231PD (DI)(AX*8), Y2, Y1
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  fdot4

fdotreduce:
	VEXTRACTF128 $1, Y1, X2
	VPERMILPD $1, X1, X3
	VADDSD X3, X1, X1
	VADDSD X2, X1, X1
	VPERMILPD $1, X2, X2
	VADDSD X2, X1, X1

fdot1:
	TESTQ CX, CX
	JEQ   fdotdone
	VMOVSD (SI)(AX*8), X2
	VFMADD231SD (DI)(AX*8), X2, X1
	INCQ AX
	DECQ CX
	JMP  fdot1

fdotdone:
	VMOVSD X1, ret+24(FP)
	VZEROUPPER
	RET

// func axpy2AVX2(a0 float64, x0 *float64, a1 float64, x1 *float64, y *float64, n int)
//
// The register-tiled dual-source kernel: the accumulator tile stays in
// YMM registers across both multiply-adds, halving accumulator traffic
// versus two Axpy passes while rounding identically (mul then add, source
// 0 first). Each add takes the product as its first source, as axpyAVX2's
// does, so the same NaN payload survives when two NaNs meet.
TEXT ·axpy2AVX2(SB), NOSPLIT, $0-48
	VBROADCASTSD a0+0(FP), Y14
	MOVQ x0+8(FP), SI
	VBROADCASTSD a1+16(FP), Y15
	MOVQ x1+24(FP), DX
	MOVQ y+32(FP), DI
	MOVQ n+40(FP), CX
	XORQ AX, AX

a2loop8:
	CMPQ CX, $8
	JLT  a2loop4
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VMOVUPD (SI)(AX*8), Y3
	VMOVUPD 32(SI)(AX*8), Y4
	VMULPD  Y14, Y3, Y3
	VMULPD  Y14, Y4, Y4
	VADDPD  Y1, Y3, Y1
	VADDPD  Y2, Y4, Y2
	VMOVUPD (DX)(AX*8), Y3
	VMOVUPD 32(DX)(AX*8), Y4
	VMULPD  Y15, Y3, Y3
	VMULPD  Y15, Y4, Y4
	VADDPD  Y1, Y3, Y1
	VADDPD  Y2, Y4, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  a2loop8

a2loop4:
	CMPQ CX, $4
	JLT  a2loop1
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD (SI)(AX*8), Y3
	VMULPD  Y14, Y3, Y3
	VADDPD  Y1, Y3, Y1
	VMOVUPD (DX)(AX*8), Y3
	VMULPD  Y15, Y3, Y3
	VADDPD  Y1, Y3, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	SUBQ $4, CX

a2loop1:
	TESTQ CX, CX
	JEQ   a2done
	VMOVSD (DI)(AX*8), X1
	VMOVSD (SI)(AX*8), X3
	VMULSD X14, X3, X3
	VADDSD X1, X3, X1
	VMOVSD (DX)(AX*8), X3
	VMULSD X15, X3, X3
	VADDSD X1, X3, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	DECQ CX
	JMP  a2loop1

a2done:
	VZEROUPPER
	RET

// func axpy2FMA(a0 float64, x0 *float64, a1 float64, x1 *float64, y *float64, n int)
TEXT ·axpy2FMA(SB), NOSPLIT, $0-48
	VBROADCASTSD a0+0(FP), Y14
	MOVQ x0+8(FP), SI
	VBROADCASTSD a1+16(FP), Y15
	MOVQ x1+24(FP), DX
	MOVQ y+32(FP), DI
	MOVQ n+40(FP), CX
	XORQ AX, AX

fa2loop8:
	CMPQ CX, $8
	JLT  fa2loop4
	VMOVUPD (DI)(AX*8), Y1
	VMOVUPD 32(DI)(AX*8), Y2
	VFMADD231PD (SI)(AX*8), Y14, Y1
	VFMADD231PD 32(SI)(AX*8), Y14, Y2
	VFMADD231PD (DX)(AX*8), Y15, Y1
	VFMADD231PD 32(DX)(AX*8), Y15, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	SUBQ $8, CX
	JMP  fa2loop8

fa2loop4:
	CMPQ CX, $4
	JLT  fa2loop1
	VMOVUPD (DI)(AX*8), Y1
	VFMADD231PD (SI)(AX*8), Y14, Y1
	VFMADD231PD (DX)(AX*8), Y15, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	SUBQ $4, CX

fa2loop1:
	TESTQ CX, CX
	JEQ   fa2done
	VMOVSD (DI)(AX*8), X1
	VFMADD231SD (SI)(AX*8), X14, X1
	VFMADD231SD (DX)(AX*8), X15, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ AX
	DECQ CX
	JMP  fa2loop1

fa2done:
	VZEROUPPER
	RET

// func axpyQuadAVX2(x *float64, a0 float64, y0 *float64, a1 float64, y1 *float64, a2 float64, y2 *float64, a3 float64, y3 *float64, n int)
//
// The multi-row tiled kernel: each x tile is loaded once and spread to four
// destination rows while in registers, cutting source bandwidth 4x versus
// four Axpy passes while rounding identically.
TEXT ·axpyQuadAVX2(SB), NOSPLIT, $0-80
	MOVQ x+0(FP), SI
	VBROADCASTSD a0+8(FP), Y12
	MOVQ y0+16(FP), R8
	VBROADCASTSD a1+24(FP), Y13
	MOVQ y1+32(FP), R9
	VBROADCASTSD a2+40(FP), Y14
	MOVQ y2+48(FP), R10
	VBROADCASTSD a3+56(FP), Y15
	MOVQ y3+64(FP), R11
	MOVQ n+72(FP), CX
	XORQ AX, AX

quad4:
	CMPQ CX, $4
	JLT  quad1
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  Y12, Y0, Y2
	VADDPD  (R8)(AX*8), Y2, Y2
	VMOVUPD Y2, (R8)(AX*8)
	VMULPD  Y13, Y0, Y2
	VADDPD  (R9)(AX*8), Y2, Y2
	VMOVUPD Y2, (R9)(AX*8)
	VMULPD  Y14, Y0, Y2
	VADDPD  (R10)(AX*8), Y2, Y2
	VMOVUPD Y2, (R10)(AX*8)
	VMULPD  Y15, Y0, Y2
	VADDPD  (R11)(AX*8), Y2, Y2
	VMOVUPD Y2, (R11)(AX*8)
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  quad4

quad1:
	TESTQ CX, CX
	JEQ   quaddone
	VMOVSD (SI)(AX*8), X0
	VMULSD X12, X0, X2
	VADDSD (R8)(AX*8), X2, X2
	VMOVSD X2, (R8)(AX*8)
	VMULSD X13, X0, X2
	VADDSD (R9)(AX*8), X2, X2
	VMOVSD X2, (R9)(AX*8)
	VMULSD X14, X0, X2
	VADDSD (R10)(AX*8), X2, X2
	VMOVSD X2, (R10)(AX*8)
	VMULSD X15, X0, X2
	VADDSD (R11)(AX*8), X2, X2
	VMOVSD X2, (R11)(AX*8)
	INCQ AX
	DECQ CX
	JMP  quad1

quaddone:
	VZEROUPPER
	RET

// func axpyQuadFMA(x *float64, a0 float64, y0 *float64, a1 float64, y1 *float64, a2 float64, y2 *float64, a3 float64, y3 *float64, n int)
TEXT ·axpyQuadFMA(SB), NOSPLIT, $0-80
	MOVQ x+0(FP), SI
	VBROADCASTSD a0+8(FP), Y12
	MOVQ y0+16(FP), R8
	VBROADCASTSD a1+24(FP), Y13
	MOVQ y1+32(FP), R9
	VBROADCASTSD a2+40(FP), Y14
	MOVQ y2+48(FP), R10
	VBROADCASTSD a3+56(FP), Y15
	MOVQ y3+64(FP), R11
	MOVQ n+72(FP), CX
	XORQ AX, AX

fquad4:
	CMPQ CX, $4
	JLT  fquad1
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD (R8)(AX*8), Y2
	VFMADD231PD Y0, Y12, Y2
	VMOVUPD Y2, (R8)(AX*8)
	VMOVUPD (R9)(AX*8), Y2
	VFMADD231PD Y0, Y13, Y2
	VMOVUPD Y2, (R9)(AX*8)
	VMOVUPD (R10)(AX*8), Y2
	VFMADD231PD Y0, Y14, Y2
	VMOVUPD Y2, (R10)(AX*8)
	VMOVUPD (R11)(AX*8), Y2
	VFMADD231PD Y0, Y15, Y2
	VMOVUPD Y2, (R11)(AX*8)
	ADDQ $4, AX
	SUBQ $4, CX
	JMP  fquad4

fquad1:
	TESTQ CX, CX
	JEQ   fquaddone
	VMOVSD (SI)(AX*8), X0
	VMOVSD (R8)(AX*8), X2
	VFMADD231SD X0, X12, X2
	VMOVSD X2, (R8)(AX*8)
	VMOVSD (R9)(AX*8), X2
	VFMADD231SD X0, X13, X2
	VMOVSD X2, (R9)(AX*8)
	VMOVSD (R10)(AX*8), X2
	VFMADD231SD X0, X14, X2
	VMOVSD X2, (R10)(AX*8)
	VMOVSD (R11)(AX*8), X2
	VFMADD231SD X0, X15, X2
	VMOVSD X2, (R11)(AX*8)
	INCQ AX
	DECQ CX
	JMP  fquad1

fquaddone:
	VZEROUPPER
	RET

// The gather kernels (AxpyGather): y[i] += vals[j*stride] * rows[slots[j]][i]
// for j = 0..m-1 in order. A tile of y — 32 elements in Y0-Y7, then one
// 16-, 8- and 4-element tile and a scalar tail — stays in registers while
// every term is added into it, so y moves once per call. Each term repeats
// Axpy's instruction forms (operand order included, which fixes which NaN
// payload survives), so a call equals m chained Axpy calls bit for bit.
//
// Registers: DI walks y, CX counts the elements left, AX is the tile's byte
// offset into every source row, SI/R12 are vals and its byte stride, BX the
// slots, DX the term count m >= 1, R8 the rows' slice headers (24 bytes
// each). A term loop walks R9 (multiplier), R10 (slot) and R11 (terms
// left); R13 is the term's source row at the tile, Y15 its multiplier.

// TERMS_BEGIN rewinds the term walk for a new tile.
#define TERMS_BEGIN \
	MOVQ SI, R9; \
	MOVQ BX, R10; \
	MOVQ DX, R11

// TERM_LOAD broadcasts term j's multiplier into mul and points R13 at its
// source row's tile: R13 = rows[slots[j]].ptr + AX.
#define TERM_LOAD(mul) \
	VBROADCASTSD (R9), mul; \
	MOVLQSX (R10), R13; \
	LEAQ (R13)(R13*2), R13; \
	MOVQ (R8)(R13*8), R13; \
	ADDQ AX, R13

// TERMS_NEXT steps to the next term and loops to label while terms remain.
#define TERMS_NEXT(label) \
	ADDQ R12, R9; \
	ADDQ $4, R10; \
	DECQ R11; \
	JNZ  label

// MULADD is axpyAVX2's element step on one 4-wide vector: acc = x*alpha + acc.
#define MULADD(off, acc) \
	VMOVUPD off(R13), Y8; \
	VMULPD  Y15, Y8, Y8; \
	VADDPD  acc, Y8, acc

// FMULADD is axpyFMA's: acc = alpha*x + acc, rounded once.
#define FMULADD(off, acc) \
	VFMADD231PD off(R13), Y15, acc

// func axpyGatherAVX2(y *float64, n int, vals *float64, stride int, slots *int32, m int, rows *[]float64)
TEXT ·axpyGatherAVX2(SB), NOSPLIT, $0-56
	MOVQ y+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ vals+16(FP), SI
	MOVQ stride+24(FP), R12
	SHLQ $3, R12
	MOVQ slots+32(FP), BX
	MOVQ m+40(FP), DX
	MOVQ rows+48(FP), R8
	XORQ AX, AX

g32:
	CMPQ CX, $32
	JLT  g16
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	TERMS_BEGIN

g32term:
	TERM_LOAD(Y15)
	MULADD(0, Y0)
	MULADD(32, Y1)
	MULADD(64, Y2)
	MULADD(96, Y3)
	MULADD(128, Y4)
	MULADD(160, Y5)
	MULADD(192, Y6)
	MULADD(224, Y7)
	TERMS_NEXT(g32term)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, AX
	SUBQ $32, CX
	JMP  g32

g16:
	CMPQ CX, $16
	JLT  g8
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	TERMS_BEGIN

g16term:
	TERM_LOAD(Y15)
	MULADD(0, Y0)
	MULADD(32, Y1)
	MULADD(64, Y2)
	MULADD(96, Y3)
	TERMS_NEXT(g16term)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, AX
	SUBQ $16, CX

g8:
	CMPQ CX, $8
	JLT  g4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	TERMS_BEGIN

g8term:
	TERM_LOAD(Y15)
	MULADD(0, Y0)
	MULADD(32, Y1)
	TERMS_NEXT(g8term)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, AX
	SUBQ $8, CX

g4:
	CMPQ CX, $4
	JLT  g1
	VMOVUPD 0(DI), Y0
	TERMS_BEGIN

g4term:
	TERM_LOAD(Y15)
	MULADD(0, Y0)
	TERMS_NEXT(g4term)
	VMOVUPD Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $32, AX
	SUBQ $4, CX

g1:
	TESTQ CX, CX
	JEQ   gdone
	VMOVSD (DI), X0
	TERMS_BEGIN

g1term:
	TERM_LOAD(Y15)
	VMOVSD (R13), X8
	VMULSD X15, X8, X8
	VADDSD X0, X8, X0
	TERMS_NEXT(g1term)
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, AX
	DECQ CX
	JMP  g1

gdone:
	VZEROUPPER
	RET

// func axpyGatherFMA(y *float64, n int, vals *float64, stride int, slots *int32, m int, rows *[]float64)
TEXT ·axpyGatherFMA(SB), NOSPLIT, $0-56
	MOVQ y+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ vals+16(FP), SI
	MOVQ stride+24(FP), R12
	SHLQ $3, R12
	MOVQ slots+32(FP), BX
	MOVQ m+40(FP), DX
	MOVQ rows+48(FP), R8
	XORQ AX, AX

fg32:
	CMPQ CX, $32
	JLT  fg16
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	TERMS_BEGIN

fg32term:
	TERM_LOAD(Y15)
	FMULADD(0, Y0)
	FMULADD(32, Y1)
	FMULADD(64, Y2)
	FMULADD(96, Y3)
	FMULADD(128, Y4)
	FMULADD(160, Y5)
	FMULADD(192, Y6)
	FMULADD(224, Y7)
	TERMS_NEXT(fg32term)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, AX
	SUBQ $32, CX
	JMP  fg32

fg16:
	CMPQ CX, $16
	JLT  fg8
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	TERMS_BEGIN

fg16term:
	TERM_LOAD(Y15)
	FMULADD(0, Y0)
	FMULADD(32, Y1)
	FMULADD(64, Y2)
	FMULADD(96, Y3)
	TERMS_NEXT(fg16term)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, AX
	SUBQ $16, CX

fg8:
	CMPQ CX, $8
	JLT  fg4
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	TERMS_BEGIN

fg8term:
	TERM_LOAD(Y15)
	FMULADD(0, Y0)
	FMULADD(32, Y1)
	TERMS_NEXT(fg8term)
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, AX
	SUBQ $8, CX

fg4:
	CMPQ CX, $4
	JLT  fg1
	VMOVUPD 0(DI), Y0
	TERMS_BEGIN

fg4term:
	TERM_LOAD(Y15)
	FMULADD(0, Y0)
	TERMS_NEXT(fg4term)
	VMOVUPD Y0, 0(DI)
	ADDQ $32, DI
	ADDQ $32, AX
	SUBQ $4, CX

fg1:
	TESTQ CX, CX
	JEQ   fgdone
	VMOVSD (DI), X0
	TERMS_BEGIN

fg1term:
	TERM_LOAD(Y15)
	VFMADD231SD (R13), X15, X0
	TERMS_NEXT(fg1term)
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, AX
	DECQ CX
	JMP  fg1

fgdone:
	VZEROUPPER
	RET

// The 512-bit gather kernel, the AVX512 set's only body of its own. Same
// contract, registers and term walk as axpyGatherAVX2, at twice the width:
// a 128-element tile of y in Z0-Z15 (a whole K=128 row, so every term's
// source row is read once per call), then one 64- and 32-element tile, 8-wide
// tiles and a scalar tail. Z16-Z30 take the loads, Z31 the multiplier. Each
// term repeats axpyAVX2's forms and operand order, VMULPD x*alpha then VADDPD
// product+acc with no FMA, so the stored bits are exactly those of the
// chained Axpy of the AVX2 and generic sets.

// MULADD512 is MULADD on one 8-wide vector, loading through tmp.
#define MULADD512(off, tmp, acc) \
	VMOVUPD off(R13), tmp; \
	VMULPD  Z31, tmp, tmp; \
	VADDPD  acc, tmp, acc

// func axpyGatherAVX512(y *float64, n int, vals *float64, stride int, slots *int32, m int, rows *[]float64)
TEXT ·axpyGatherAVX512(SB), NOSPLIT, $0-56
	MOVQ y+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ vals+16(FP), SI
	MOVQ stride+24(FP), R12
	SHLQ $3, R12
	MOVQ slots+32(FP), BX
	MOVQ m+40(FP), DX
	MOVQ rows+48(FP), R8
	XORQ AX, AX

z128:
	CMPQ CX, $128
	JLT  z64
	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7
	VMOVUPD 512(DI), Z8
	VMOVUPD 576(DI), Z9
	VMOVUPD 640(DI), Z10
	VMOVUPD 704(DI), Z11
	VMOVUPD 768(DI), Z12
	VMOVUPD 832(DI), Z13
	VMOVUPD 896(DI), Z14
	VMOVUPD 960(DI), Z15
	TERMS_BEGIN

z128term:
	TERM_LOAD(Z31)
	MULADD512(0, Z16, Z0)
	MULADD512(64, Z17, Z1)
	MULADD512(128, Z18, Z2)
	MULADD512(192, Z19, Z3)
	MULADD512(256, Z20, Z4)
	MULADD512(320, Z21, Z5)
	MULADD512(384, Z22, Z6)
	MULADD512(448, Z23, Z7)
	MULADD512(512, Z24, Z8)
	MULADD512(576, Z25, Z9)
	MULADD512(640, Z26, Z10)
	MULADD512(704, Z27, Z11)
	MULADD512(768, Z28, Z12)
	MULADD512(832, Z29, Z13)
	MULADD512(896, Z30, Z14)
	MULADD512(960, Z16, Z15)
	TERMS_NEXT(z128term)
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	VMOVUPD Z8, 512(DI)
	VMOVUPD Z9, 576(DI)
	VMOVUPD Z10, 640(DI)
	VMOVUPD Z11, 704(DI)
	VMOVUPD Z12, 768(DI)
	VMOVUPD Z13, 832(DI)
	VMOVUPD Z14, 896(DI)
	VMOVUPD Z15, 960(DI)
	ADDQ $1024, DI
	ADDQ $1024, AX
	SUBQ $128, CX
	JMP  z128

z64:
	CMPQ CX, $64
	JLT  z32
	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7
	TERMS_BEGIN

z64term:
	TERM_LOAD(Z31)
	MULADD512(0, Z16, Z0)
	MULADD512(64, Z17, Z1)
	MULADD512(128, Z18, Z2)
	MULADD512(192, Z19, Z3)
	MULADD512(256, Z20, Z4)
	MULADD512(320, Z21, Z5)
	MULADD512(384, Z22, Z6)
	MULADD512(448, Z23, Z7)
	TERMS_NEXT(z64term)
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	ADDQ $512, DI
	ADDQ $512, AX
	SUBQ $64, CX

z32:
	CMPQ CX, $32
	JLT  z8
	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	TERMS_BEGIN

z32term:
	TERM_LOAD(Z31)
	MULADD512(0, Z16, Z0)
	MULADD512(64, Z17, Z1)
	MULADD512(128, Z18, Z2)
	MULADD512(192, Z19, Z3)
	TERMS_NEXT(z32term)
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ $256, DI
	ADDQ $256, AX
	SUBQ $32, CX

z8:
	CMPQ CX, $8
	JLT  z1
	VMOVUPD 0(DI), Z0
	TERMS_BEGIN

z8term:
	TERM_LOAD(Z31)
	MULADD512(0, Z16, Z0)
	TERMS_NEXT(z8term)
	VMOVUPD Z0, 0(DI)
	ADDQ $64, DI
	ADDQ $64, AX
	SUBQ $8, CX
	JMP  z8

z1:
	TESTQ CX, CX
	JEQ   zdone
	VMOVSD (DI), X0
	TERMS_BEGIN

z1term:
	TERM_LOAD(Y15)
	VMOVSD (R13), X8
	VMULSD X15, X8, X8
	VADDSD X0, X8, X0
	TERMS_NEXT(z1term)
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, AX
	DECQ CX
	JMP  z1

zdone:
	VZEROUPPER
	RET
