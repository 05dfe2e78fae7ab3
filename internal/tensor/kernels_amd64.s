//go:build amd64 && !purego && !race

#include "textflag.h"

// AVX2 backend of the hot kernels: the five nn kernels, the four sweeps
// of the protocol path, the CNN's four elementwise layer sweeps (ReLU, its
// backward mask, the 2x2 max-pool, Fill) and the three exp sweeps
// (sigmoid, tanh, softmax's exponentials). The rules every routine keeps
// (the ordering contract of internal/nn's package comment):
//
//   - a SIMD lane is one accumulator; lanes are never added to each other
//     and an accumulator is never split across lanes;
//   - a sum the Go code writes is never fused: every product is rounded
//     before it is added, VMULPD then VADDPD;
//   - a function the Go code calls (Exp and Tanh of exp.go) is reproduced
//     with that function's own operations, each one its lane's copy of
//     the scalar one — fused exactly where Exp calls math.FMA;
//   - each accumulator receives its additions in the order the plain loop
//     makes them, and an operand the plain loop skips (a zero of either
//     sign, never a NaN) is skipped.
//
// A zero test is done on the bit pattern: shifting the sign bit out leaves
// zero exactly for +0 and -0. Loads and stores are unaligned throughout.
// Callers guarantee non-empty operands and in-range extents; nothing here
// checks a bound. VZEROUPPER precedes every RET that follows YMM use.

// func hasAVX2FMA() bool
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	CPUID
	ANDL $0x18001000, CX // FMA (bit 12), OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18001000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX // the OS saves XMM (bit 1) and YMM (bit 2) state
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $5, BX // AVX2
	JCC  done
	MOVB $1, ret+0(FP)
done:
	RET

// MatVec. Lanes are four rows: accumulator lane k of a group is dst[r+k].
// For two columns c, c+1 the 4x2 block of the group is loaded as
// (row r | row r+2) and (row r+1 | row r+3) and unpacked into the two
// columns, each then multiplied by the broadcast x[c] and added, columns in
// increasing c. Four groups (sixteen rows) are in flight so that the add
// latency of one group's chain is covered by the other three.
//
// R10 = row stride in bytes, R11 = 3*R10, Y8/Y9 = broadcast x[c], x[c+1].
#define GROUP2(P, ACC, D) \
	VMOVUPD     D(P), X4; \
	VMOVUPD     D(P)(R10*1), X5; \
	VINSERTF128 $1, D(P)(R10*2), Y4, Y4; \
	VINSERTF128 $1, D(P)(R11*1), Y5, Y5; \
	VUNPCKLPD   Y5, Y4, Y6; \
	VUNPCKHPD   Y5, Y4, Y7; \
	VMULPD      Y6, Y8, Y6; \
	VADDPD      Y6, ACC, ACC; \
	VMULPD      Y7, Y9, Y7; \
	VADDPD      Y7, ACC, ACC

// One last column of a group, gathered element by element.
#define GROUP1(P, ACC) \
	VMOVSD      (P), X4; \
	VMOVHPD     (P)(R10*1), X4, X4; \
	VMOVSD      (P)(R10*2), X5; \
	VMOVHPD     (P)(R11*1), X5, X5; \
	VINSERTF128 $1, X5, Y4, Y4; \
	VMULPD      Y4, Y8, Y4; \
	VADDPD      Y4, ACC, ACC

// func matVecAVX2(dst, a *float64, rows, cols int, x *float64)
TEXT ·matVecAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	MOVQ x+32(FP), DX
	MOVQ R9, R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11

mv_rows16:
	CMPQ   R8, $16
	JLT    mv_rows4
	LEAQ   (SI)(R10*4), BX
	LEAQ   (BX)(R10*4), R12
	LEAQ   (R12)(R10*4), R13
	MOVQ   DX, AX
	MOVQ   R9, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

mv16_cols4:
	CMPQ         CX, $4
	JLT          mv16_cols2
	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	GROUP2(SI, Y0, 0)
	GROUP2(BX, Y1, 0)
	GROUP2(R12, Y2, 0)
	GROUP2(R13, Y3, 0)
	VBROADCASTSD 16(AX), Y8
	VBROADCASTSD 24(AX), Y9
	GROUP2(SI, Y0, 16)
	GROUP2(BX, Y1, 16)
	GROUP2(R12, Y2, 16)
	GROUP2(R13, Y3, 16)
	ADDQ         $32, SI
	ADDQ         $32, BX
	ADDQ         $32, R12
	ADDQ         $32, R13
	ADDQ         $32, AX
	SUBQ         $4, CX
	JMP          mv16_cols4

mv16_cols2:
	CMPQ         CX, $2
	JLT          mv16_cols1
	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	GROUP2(SI, Y0, 0)
	GROUP2(BX, Y1, 0)
	GROUP2(R12, Y2, 0)
	GROUP2(R13, Y3, 0)
	ADDQ         $16, SI
	ADDQ         $16, BX
	ADDQ         $16, R12
	ADDQ         $16, R13
	ADDQ         $16, AX
	SUBQ         $2, CX

mv16_cols1:
	TESTQ        CX, CX
	JZ           mv16_store
	VBROADCASTSD (AX), Y8
	GROUP1(SI, Y0)
	GROUP1(BX, Y1)
	GROUP1(R12, Y2)
	GROUP1(R13, Y3)
	ADDQ         $8, R13

mv16_store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (R13)(R11*1), SI // R13 ends one row past row 12 of the group
	SUBQ    $16, R8
	JMP     mv_rows16

mv_rows4:
	CMPQ   R8, $4
	JLT    mv_rows1
	MOVQ   DX, AX
	MOVQ   R9, CX
	VXORPD Y0, Y0, Y0

mv4_cols2:
	CMPQ         CX, $2
	JLT          mv4_cols1
	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	GROUP2(SI, Y0, 0)
	ADDQ         $16, SI
	ADDQ         $16, AX
	SUBQ         $2, CX
	JMP          mv4_cols2

mv4_cols1:
	TESTQ        CX, CX
	JZ           mv4_store
	VBROADCASTSD (AX), Y8
	GROUP1(SI, Y0)
	ADDQ         $8, SI

mv4_store:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	LEAQ    (SI)(R11*1), SI // SI ends one row past row 0 of the group
	SUBQ    $4, R8
	JMP     mv_rows4

mv_rows1:
	TESTQ  R8, R8
	JZ     mv_done
	MOVQ   DX, AX
	MOVQ   R9, CX
	VXORPD X0, X0, X0

mv1_col:
	VMOVSD (SI), X4
	VMULSD (AX), X4, X4
	VADDSD X4, X0, X0
	ADDQ   $8, SI
	ADDQ   $8, AX
	DECQ   CX
	JNZ    mv1_col
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	DECQ   R8
	JMP    mv_rows1

mv_done:
	VZEROUPPER
	RET

// MatVecT. Lanes are columns of dst. A block of sixteen columns is held in
// Y0-Y3 across the whole row loop: each accumulator starts at +0 and adds
// a[r][c]*x[r] for r = 0, 1, ..., rows with x[r] == 0 skipped. Then blocks
// of eight and of four columns, then single columns. (A chain of `rows`
// dependent adds is what a block costs, however narrow, so wide blocks
// first.)
//
// func matVecTAVX2(dst, a *float64, rows, cols int, x *float64)
TEXT ·matVecTAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), R9
	MOVQ x+32(FP), DX
	MOVQ R9, R10
	SHLQ $3, R10
	XORQ CX, CX // first column of the block

mt_cols16:
	LEAQ   16(CX), AX
	CMPQ   AX, R9
	JGT    mt_cols8
	LEAQ   (SI)(CX*8), BX
	XORQ   R11, R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

mt16_row:
	MOVQ         (DX)(R11*8), R12
	SHLQ         $1, R12
	JZ           mt16_next
	VBROADCASTSD (DX)(R11*8), Y4
	VMULPD       (BX), Y4, Y5
	VMULPD       32(BX), Y4, Y6
	VMULPD       64(BX), Y4, Y7
	VMULPD       96(BX), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3

mt16_next:
	ADDQ    R10, BX
	INCQ    R11
	CMPQ    R11, R8
	JLT     mt16_row
	VMOVUPD Y0, (DI)(CX*8)
	VMOVUPD Y1, 32(DI)(CX*8)
	VMOVUPD Y2, 64(DI)(CX*8)
	VMOVUPD Y3, 96(DI)(CX*8)
	MOVQ    AX, CX
	JMP     mt_cols16

mt_cols8:
	LEAQ   8(CX), AX
	CMPQ   AX, R9
	JGT    mt_cols4
	LEAQ   (SI)(CX*8), BX
	XORQ   R11, R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

mt8_row:
	MOVQ         (DX)(R11*8), R12
	SHLQ         $1, R12
	JZ           mt8_next
	VBROADCASTSD (DX)(R11*8), Y4
	VMULPD       (BX), Y4, Y5
	VMULPD       32(BX), Y4, Y6
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1

mt8_next:
	ADDQ    R10, BX
	INCQ    R11
	CMPQ    R11, R8
	JLT     mt8_row
	VMOVUPD Y0, (DI)(CX*8)
	VMOVUPD Y1, 32(DI)(CX*8)
	MOVQ    AX, CX

mt_cols4:
	LEAQ   4(CX), AX
	CMPQ   AX, R9
	JGT    mt_cols1
	LEAQ   (SI)(CX*8), BX
	XORQ   R11, R11
	VXORPD Y0, Y0, Y0

mt4_row:
	MOVQ         (DX)(R11*8), R12
	SHLQ         $1, R12
	JZ           mt4_next
	VBROADCASTSD (DX)(R11*8), Y4
	VMULPD       (BX), Y4, Y5
	VADDPD       Y5, Y0, Y0

mt4_next:
	ADDQ    R10, BX
	INCQ    R11
	CMPQ    R11, R8
	JLT     mt4_row
	VMOVUPD Y0, (DI)(CX*8)
	MOVQ    AX, CX
	JMP     mt_cols4

mt_cols1:
	CMPQ   CX, R9
	JGE    mt_done
	LEAQ   (SI)(CX*8), BX
	XORQ   R11, R11
	VXORPD X0, X0, X0

mt1_row:
	MOVQ   (DX)(R11*8), R12
	SHLQ   $1, R12
	JZ     mt1_next
	VMOVSD (DX)(R11*8), X4
	VMULSD (BX), X4, X5
	VADDSD X5, X0, X0

mt1_next:
	ADDQ   R10, BX
	INCQ   R11
	CMPQ   R11, R8
	JLT    mt1_row
	VMOVSD X0, (DI)(CX*8)
	INCQ   CX
	JMP    mt_cols1

mt_done:
	VZEROUPPER
	RET

// AddOuter. Every element of m is its own accumulator and receives one
// addition, so lanes are simply adjacent columns. Like MatVecT it walks a
// block of sixteen (then eight, four, one) columns down all the rows, with
// the block of b held in registers, so the row loop has no inner loop; a row
// with alpha*a[r] == 0 is skipped.
//
// func addOuterAVX2(m *float64, rows, cols int, alpha float64, a, b *float64)
TEXT ·addOuterAVX2(SB), NOSPLIT, $0-48
	MOVQ   m+0(FP), DI
	MOVQ   rows+8(FP), R8
	MOVQ   cols+16(FP), R9
	VMOVSD alpha+24(FP), X15
	MOVQ   a+32(FP), SI
	MOVQ   b+40(FP), DX
	MOVQ   R9, R10
	SHLQ   $3, R10
	XORQ   CX, CX // first column of the block

ao_cols16:
	LEAQ    16(CX), AX
	CMPQ    AX, R9
	JGT     ao_cols8
	VMOVUPD (DX)(CX*8), Y1
	VMOVUPD 32(DX)(CX*8), Y2
	VMOVUPD 64(DX)(CX*8), Y3
	VMOVUPD 96(DX)(CX*8), Y4
	LEAQ    (DI)(CX*8), BX
	XORQ    R11, R11

ao16_row:
	VMULSD       (SI)(R11*8), X15, X0
	VMOVQ        X0, R12
	SHLQ         $1, R12
	JZ           ao16_next
	VBROADCASTSD X0, Y0
	VMULPD       Y1, Y0, Y5
	VMULPD       Y2, Y0, Y6
	VMULPD       Y3, Y0, Y7
	VMULPD       Y4, Y0, Y8
	VADDPD       (BX), Y5, Y5
	VADDPD       32(BX), Y6, Y6
	VADDPD       64(BX), Y7, Y7
	VADDPD       96(BX), Y8, Y8
	VMOVUPD      Y5, (BX)
	VMOVUPD      Y6, 32(BX)
	VMOVUPD      Y7, 64(BX)
	VMOVUPD      Y8, 96(BX)

ao16_next:
	ADDQ R10, BX
	INCQ R11
	CMPQ R11, R8
	JLT  ao16_row
	MOVQ AX, CX
	JMP  ao_cols16

ao_cols8:
	LEAQ    8(CX), AX
	CMPQ    AX, R9
	JGT     ao_cols4
	VMOVUPD (DX)(CX*8), Y1
	VMOVUPD 32(DX)(CX*8), Y2
	LEAQ    (DI)(CX*8), BX
	XORQ    R11, R11

ao8_row:
	VMULSD       (SI)(R11*8), X15, X0
	VMOVQ        X0, R12
	SHLQ         $1, R12
	JZ           ao8_next
	VBROADCASTSD X0, Y0
	VMULPD       Y1, Y0, Y5
	VMULPD       Y2, Y0, Y6
	VADDPD       (BX), Y5, Y5
	VADDPD       32(BX), Y6, Y6
	VMOVUPD      Y5, (BX)
	VMOVUPD      Y6, 32(BX)

ao8_next:
	ADDQ R10, BX
	INCQ R11
	CMPQ R11, R8
	JLT  ao8_row
	MOVQ AX, CX

ao_cols4:
	LEAQ    4(CX), AX
	CMPQ    AX, R9
	JGT     ao_cols1
	VMOVUPD (DX)(CX*8), Y1
	LEAQ    (DI)(CX*8), BX
	XORQ    R11, R11

ao4_row:
	VMULSD       (SI)(R11*8), X15, X0
	VMOVQ        X0, R12
	SHLQ         $1, R12
	JZ           ao4_next
	VBROADCASTSD X0, Y0
	VMULPD       Y1, Y0, Y5
	VADDPD       (BX), Y5, Y5
	VMOVUPD      Y5, (BX)

ao4_next:
	ADDQ R10, BX
	INCQ R11
	CMPQ R11, R8
	JLT  ao4_row
	MOVQ AX, CX

ao_cols1:
	CMPQ   CX, R9
	JGE    ao_done
	VMOVSD (DX)(CX*8), X1
	LEAQ   (DI)(CX*8), BX
	XORQ   R11, R11

ao1_row:
	VMULSD (SI)(R11*8), X15, X0
	VMOVQ  X0, R12
	SHLQ   $1, R12
	JZ     ao1_next
	VMULSD X1, X0, X5
	VADDSD (BX), X5, X5
	VMOVSD X5, (BX)

ao1_next:
	ADDQ R10, BX
	INCQ R11
	CMPQ R11, R8
	JLT  ao1_row
	INCQ CX
	JMP  ao_cols1

ao_done:
	VZEROUPPER
	RET

// Conv3x3Add. Lanes are four adjacent outputs of one output row. The nine
// taps stay broadcast in Y7-Y15 for the whole plane; each output loads its
// running value and adds x*w for the taps in (ky, kx) order. The last
// outW%4 outputs of a row take the same steps one at a time.
//
// func conv3x3AddAVX2(out *float64, outH, outW int, x *float64, inW int, w *float64)
TEXT ·conv3x3AddAVX2(SB), NOSPLIT, $0-48
	MOVQ         out+0(FP), DI
	MOVQ         outH+8(FP), R8
	MOVQ         outW+16(FP), R9
	MOVQ         x+24(FP), SI
	MOVQ         inW+32(FP), R10
	SHLQ         $3, R10
	MOVQ         w+40(FP), AX
	VBROADCASTSD (AX), Y7
	VBROADCASTSD 8(AX), Y8
	VBROADCASTSD 16(AX), Y9
	VBROADCASTSD 24(AX), Y10
	VBROADCASTSD 32(AX), Y11
	VBROADCASTSD 40(AX), Y12
	VBROADCASTSD 48(AX), Y13
	VBROADCASTSD 56(AX), Y14
	VBROADCASTSD 64(AX), Y15

cv_row:
	LEAQ (SI)(R10*1), BX
	LEAQ (SI)(R10*2), DX
	XORQ CX, CX

cv_cols4:
	LEAQ    4(CX), AX
	CMPQ    AX, R9
	JGT     cv_cols1
	VMOVUPD (DI)(CX*8), Y0
	VMULPD  (SI)(CX*8), Y7, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  8(SI)(CX*8), Y8, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  16(SI)(CX*8), Y9, Y3
	VADDPD  Y3, Y0, Y0
	VMULPD  (BX)(CX*8), Y10, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  8(BX)(CX*8), Y11, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  16(BX)(CX*8), Y12, Y3
	VADDPD  Y3, Y0, Y0
	VMULPD  (DX)(CX*8), Y13, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  8(DX)(CX*8), Y14, Y2
	VADDPD  Y2, Y0, Y0
	VMULPD  16(DX)(CX*8), Y15, Y3
	VADDPD  Y3, Y0, Y0
	VMOVUPD Y0, (DI)(CX*8)
	MOVQ    AX, CX
	JMP     cv_cols4

cv_cols1:
	CMPQ   CX, R9
	JGE    cv_next
	VMOVSD (DI)(CX*8), X0
	VMULSD (SI)(CX*8), X7, X1
	VADDSD X1, X0, X0
	VMULSD 8(SI)(CX*8), X8, X2
	VADDSD X2, X0, X0
	VMULSD 16(SI)(CX*8), X9, X3
	VADDSD X3, X0, X0
	VMULSD (BX)(CX*8), X10, X1
	VADDSD X1, X0, X0
	VMULSD 8(BX)(CX*8), X11, X2
	VADDSD X2, X0, X0
	VMULSD 16(BX)(CX*8), X12, X3
	VADDSD X3, X0, X0
	VMULSD (DX)(CX*8), X13, X1
	VADDSD X1, X0, X0
	VMULSD 8(DX)(CX*8), X14, X2
	VADDSD X2, X0, X0
	VMULSD 16(DX)(CX*8), X15, X3
	VADDSD X3, X0, X0
	VMOVSD X0, (DI)(CX*8)
	INCQ   CX
	JMP    cv_cols1

cv_next:
	LEAQ (DI)(R9*8), DI
	ADDQ R10, SI
	DECQ R8
	JNZ  cv_row
	VZEROUPPER
	RET

// SGDStep: p -= lr*clip(grad*scale); grad = 0. The two ifs of the plain
// loop become two ordered compares on the unclipped value and two blends:
// a NaN compares false both times and passes through, as do -0 and values
// exactly at the bounds. The caller passes clip = +Inf for "no clipping".
//
// func sgdStepAVX2(p, grad *float64, n int, lr, scale, clip float64)
TEXT ·sgdStepAVX2(SB), NOSPLIT, $0-48
	MOVQ         p+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD lr+24(FP), Y12
	VBROADCASTSD scale+32(FP), Y13
	VBROADCASTSD clip+40(FP), Y14
	VXORPD       Y11, Y11, Y11
	VSUBPD       Y14, Y11, Y15 // 0 - clip = -clip: clip is positive

sg_four:
	CMPQ      CX, $4
	JLT       sg_one
	VMULPD    (SI), Y13, Y0
	VCMPPD    $0x1e, Y14, Y0, Y1 // gv > clip, false for NaN
	VCMPPD    $0x11, Y15, Y0, Y2 // gv < -clip, false for NaN
	VBLENDVPD Y1, Y14, Y0, Y0
	VBLENDVPD Y2, Y15, Y0, Y0
	VMULPD    Y0, Y12, Y0
	VMOVUPD   (DI), Y3
	VSUBPD    Y0, Y3, Y3
	VMOVUPD   Y3, (DI)
	VMOVUPD   Y11, (SI)
	ADDQ      $32, DI
	ADDQ      $32, SI
	SUBQ      $4, CX
	JMP       sg_four

sg_one:
	TESTQ     CX, CX
	JZ        sg_done
	VMULSD    (SI), X13, X0
	VCMPSD    $0x1e, X14, X0, X1
	VCMPSD    $0x11, X15, X0, X2
	VBLENDVPD X1, X14, X0, X0
	VBLENDVPD X2, X15, X0, X0
	VMULSD    X0, X12, X0
	VMOVSD    (DI), X3
	VSUBSD    X0, X3, X3
	VMOVSD    X3, (DI)
	VMOVSD    X11, (SI)
	ADDQ      $8, DI
	ADDQ      $8, SI
	DECQ      CX
	JMP       sg_one

sg_done:
	VZEROUPPER
	RET

// The protocol sweeps below are element-wise: a lane is one element, which
// receives exactly the operations of the Go loop, each rounded on its own.

// One element-wise merge step on the vector (or, with the X registers and
// W = X15, the pair) at VA and XA: V = v + w*(x - v), stored to v.
#define MERGE(VA, XA, V, D, W) \
	VMOVUPD VA, V; \
	VMOVUPD XA, D; \
	VSUBPD  V, D, D; \
	VMULPD  W, D, D; \
	VADDPD  D, V, V; \
	VMOVUPD V, VA

// MERGE, with the result also stored over x.
#define REPLY(VA, XA, V, D, W) \
	MERGE(VA, XA, V, D, W); \
	VMOVUPD V, XA

// WeightedMerge: v += w*(x - v), eight elements per iteration, then one at
// a time.
//
// func weightedMergeAVX2(v, x *float64, n int, w float64)
TEXT ·weightedMergeAVX2(SB), NOSPLIT, $0-32
	MOVQ         v+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD w+24(FP), Y15

wm_eight:
	CMPQ  CX, $8
	JLT   wm_one
	MERGE((DI), (SI), Y0, Y4, Y15)
	MERGE(32(DI), 32(SI), Y1, Y5, Y15)
	ADDQ  $64, DI
	ADDQ  $64, SI
	SUBQ  $8, CX
	JMP   wm_eight

wm_one:
	TESTQ  CX, CX
	JZ     wm_done
	VMOVSD (DI), X0
	VMOVSD (SI), X4
	VSUBSD X0, X4, X4
	VMULSD X15, X4, X4
	VADDSD X4, X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    wm_one

wm_done:
	VZEROUPPER
	RET

// MergeReply: v += w*(x - v); x = v, over the four quarters of q elements
// side by side as mergeReplyGo walks them — eight elements of each quarter
// per iteration (one cache line of each), with the four x streams, which
// are the ones that come from memory, prefetched 1 KiB ahead; then two of
// each at a time (q is even); then the n - 4q elements past the fourth
// quarter one at a time. AX is the byte offset into every quarter.
//
// func mergeReplyAVX2(v, x *float64, n, q int, w float64)
TEXT ·mergeReplyAVX2(SB), NOSPLIT, $0-40
	MOVQ         v+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVQ         q+24(FP), R8
	VBROADCASTSD w+32(FP), Y15
	SHLQ         $3, R8           // the quarter stride in bytes
	LEAQ         (DI)(R8*1), R10  // v's second quarter
	LEAQ         (DI)(R8*2), R11  // third
	LEAQ         (R10)(R8*2), R12 // fourth
	LEAQ         (SI)(R8*1), R13  // x's second quarter
	LEAQ         (SI)(R8*2), BX   // third
	LEAQ         (R13)(R8*2), R9  // fourth
	XORQ         AX, AX

mr_eight:
	LEAQ       64(AX), DX
	CMPQ       DX, R8
	JGT        mr_two
	PREFETCHT0 1024(SI)(AX*1)
	PREFETCHT0 1024(R13)(AX*1)
	PREFETCHT0 1024(BX)(AX*1)
	PREFETCHT0 1024(R9)(AX*1)
	REPLY((DI)(AX*1), (SI)(AX*1), Y0, Y4, Y15)
	REPLY(32(DI)(AX*1), 32(SI)(AX*1), Y1, Y5, Y15)
	REPLY((R10)(AX*1), (R13)(AX*1), Y2, Y6, Y15)
	REPLY(32(R10)(AX*1), 32(R13)(AX*1), Y3, Y7, Y15)
	REPLY((R11)(AX*1), (BX)(AX*1), Y0, Y4, Y15)
	REPLY(32(R11)(AX*1), 32(BX)(AX*1), Y1, Y5, Y15)
	REPLY((R12)(AX*1), (R9)(AX*1), Y2, Y6, Y15)
	REPLY(32(R12)(AX*1), 32(R9)(AX*1), Y3, Y7, Y15)
	MOVQ       DX, AX
	JMP        mr_eight

mr_two:
	LEAQ 16(AX), DX
	CMPQ DX, R8
	JGT  mr_rest
	REPLY((DI)(AX*1), (SI)(AX*1), X0, X4, X15)
	REPLY((R10)(AX*1), (R13)(AX*1), X1, X5, X15)
	REPLY((R11)(AX*1), (BX)(AX*1), X2, X6, X15)
	REPLY((R12)(AX*1), (R9)(AX*1), X3, X7, X15)
	MOVQ DX, AX
	JMP  mr_two

mr_rest:
	LEAQ (DI)(R8*4), DI
	LEAQ (SI)(R8*4), SI
	SHRQ $1, R8 // 4q elements
	SUBQ R8, CX

mr_one:
	TESTQ  CX, CX
	JZ     mr_done
	VMOVSD (DI), X0
	VMOVSD (SI), X4
	VSUBSD X0, X4, X4
	VMULSD X15, X4, X4
	VADDSD X4, X0, X0
	VMOVSD X0, (DI)
	VMOVSD X0, (SI)
	ADDQ   $8, DI
	ADDQ   $8, SI
	DECQ   CX
	JMP    mr_one

mr_done:
	VZEROUPPER
	RET

// Four models folded into the running element ACC, which starts as START:
// ACC = START + share*m0; ACC += share*m1; ... ; stored to avg. T holds
// each rounded product.
#define FOLD4(START, ACC, T) \
	VMULPD  (R8)(AX*1), Y15, T; \
	VADDPD  T, START, ACC; \
	VMULPD  (R9)(AX*1), Y15, T; \
	VADDPD  T, ACC, ACC; \
	VMULPD  (R10)(AX*1), Y15, T; \
	VADDPD  T, ACC, ACC; \
	VMULPD  (R11)(AX*1), Y15, T; \
	VADDPD  T, ACC, ACC; \
	VMOVUPD ACC, (DI)(AX*1)

// FOLD4 for one element.
#define FOLD1(START, ACC, T) \
	VMULSD (R8)(AX*1), X15, T; \
	VADDSD T, START, ACC; \
	VMULSD (R9)(AX*1), X15, T; \
	VADDSD T, ACC, ACC; \
	VMULSD (R10)(AX*1), X15, T; \
	VADDSD T, ACC, ACC; \
	VMULSD (R11)(AX*1), X15, T; \
	VADDSD T, ACC, ACC; \
	VMOVSD ACC, (DI)(AX*1)

// MeanInto's fold of four models, four elements per iteration, then one at
// a time. fresh starts every element from the +0 in Y14 instead of
// loading avg, which is what the Zero sweep before the first fold gave.
//
// func mean4AVX2(avg, m0, m1, m2, m3 *float64, n int, share float64, fresh bool)
TEXT ·mean4AVX2(SB), NOSPLIT, $0-57
	MOVQ         avg+0(FP), DI
	MOVQ         m0+8(FP), R8
	MOVQ         m1+16(FP), R9
	MOVQ         m2+24(FP), R10
	MOVQ         m3+32(FP), R11
	MOVQ         n+40(FP), CX
	VBROADCASTSD share+48(FP), Y15
	VXORPD       Y14, Y14, Y14
	XORQ         AX, AX
	SHLQ         $3, CX      // n in bytes
	LEAQ         -32(CX), DX // the last offset a full vector starts at
	CMPB         fresh+56(FP), $0
	JEQ          mn_four

mn_fresh_four:
	CMPQ  AX, DX
	JGT   mn_fresh_one
	FOLD4(Y14, Y0, Y1)
	ADDQ  $32, AX
	JMP   mn_fresh_four

mn_fresh_one:
	CMPQ  AX, CX
	JGE   mn_done
	FOLD1(X14, X0, X1)
	ADDQ  $8, AX
	JMP   mn_fresh_one

mn_four:
	CMPQ    AX, DX
	JGT     mn_one
	VMOVUPD (DI)(AX*1), Y0
	FOLD4(Y0, Y0, Y1)
	ADDQ    $32, AX
	JMP     mn_four

mn_one:
	CMPQ   AX, CX
	JGE    mn_done
	VMOVSD (DI)(AX*1), X0
	FOLD1(X0, X0, X1)
	ADDQ   $8, AX
	JMP    mn_one

mn_done:
	VZEROUPPER
	RET

// AllFinite: the exponent field of every word is masked out and compared
// with all ones (VPAND, VPCMPEQQ) and the verdicts are ORed together, over
// the whole vector; only then is the OR tested. The last n%4 words are
// tested one at a time.
//
// func allFiniteAVX2(v *float64, n int) bool
TEXT ·allFiniteAVX2(SB), NOSPLIT, $0-17
	MOVQ         v+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVQ         $0x7FF0000000000000, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15
	VPXOR        Y0, Y0, Y0
	VPXOR        Y1, Y1, Y1
	XORL         DX, DX      // 1 once a non-finite word is seen

af_sixteen:
	CMPQ     CX, $16
	JLT      af_four
	VPAND    (SI), Y15, Y2
	VPAND    32(SI), Y15, Y3
	VPAND    64(SI), Y15, Y4
	VPAND    96(SI), Y15, Y5
	VPCMPEQQ Y15, Y2, Y2
	VPCMPEQQ Y15, Y3, Y3
	VPCMPEQQ Y15, Y4, Y4
	VPCMPEQQ Y15, Y5, Y5
	VPOR     Y2, Y0, Y0
	VPOR     Y3, Y1, Y1
	VPOR     Y4, Y0, Y0
	VPOR     Y5, Y1, Y1
	ADDQ     $128, SI
	SUBQ     $16, CX
	JMP      af_sixteen

af_four:
	CMPQ     CX, $4
	JLT      af_test
	VPAND    (SI), Y15, Y2
	VPCMPEQQ Y15, Y2, Y2
	VPOR     Y2, Y0, Y0
	ADDQ     $32, SI
	SUBQ     $4, CX
	JMP      af_four

af_test:
	VPOR   Y1, Y0, Y0
	VPTEST Y0, Y0
	JZ     af_one
	MOVL   $1, DX

af_one:
	TESTQ CX, CX
	JZ    af_done
	MOVQ  (SI), BX
	ANDQ  AX, BX
	CMPQ  BX, AX
	JNE   af_next
	MOVL  $1, DX

af_next:
	ADDQ $8, SI
	DECQ CX
	JMP  af_one

af_done:
	XORL $1, DX
	MOVB DX, ret+16(FP)
	VZEROUPPER
	RET

// The CNN's layer sweeps below compute nothing: a lane is one element (one
// pooling window for the pool) and receives the bits of one of its
// operands, or +0, selected by a mask that is decided the way the Go loop
// decides it.

// One ReLU group at OFF: dst = src where the word b of src is above Z = 0
// and not above M = 0x7FF0000000000000 as a signed integer, else +0 — two
// VPCMPGTQ and a VPANDN, so -0, every negative and every NaN of either
// sign give +0 (+0 itself is kept or masked to the same bits). With X
// registers and VMOVQ, one word.
#define RELU(LOAD, OFF, V, K, N, Z, M) \
	LOAD     OFF(SI), V; \
	VPCMPGTQ Z, V, K; \
	VPCMPGTQ M, V, N; \
	VPANDN   K, N, K; \
	VPAND    K, V, V; \
	LOAD     V, OFF(DI)

// ReLU: sixteen words per iteration, then four, then one at a time.
//
// func reluAVX2(dst, src *float64, n int)
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVQ         $0x7FF0000000000000, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15
	VPXOR        Y14, Y14, Y14

rl_sixteen:
	CMPQ CX, $16
	JLT  rl_four
	RELU(VMOVDQU, 0, Y0, Y1, Y2, Y14, Y15)
	RELU(VMOVDQU, 32, Y3, Y4, Y5, Y14, Y15)
	RELU(VMOVDQU, 64, Y6, Y7, Y8, Y14, Y15)
	RELU(VMOVDQU, 96, Y9, Y10, Y11, Y14, Y15)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  rl_sixteen

rl_four:
	CMPQ CX, $4
	JLT  rl_one
	RELU(VMOVDQU, 0, Y0, Y1, Y2, Y14, Y15)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  rl_four

rl_one:
	TESTQ CX, CX
	JZ    rl_done
	RELU(VMOVQ, 0, X0, X1, X2, X14, X15)
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JMP   rl_one

rl_done:
	VZEROUPPER
	RET

// One backward-mask group at OFF: dx = dy where the word of out is not
// zero, else +0 — VPCMPEQQ with Z = 0, then VPANDN with dy (in D). With X
// registers and VMOVQ, one word.
#define RELUGRAD(LOAD, OFF, V, D, Z) \
	LOAD     OFF(R8), V; \
	VPCMPEQQ Z, V, V; \
	LOAD     OFF(SI), D; \
	VPANDN   D, V, V; \
	LOAD     V, OFF(DI)

// ReLU's backward mask: sixteen words per iteration, then four, then one
// at a time.
//
// func reluGradAVX2(dx, dy, out *float64, n int)
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-32
	MOVQ  dx+0(FP), DI
	MOVQ  dy+8(FP), SI
	MOVQ  out+16(FP), R8
	MOVQ  n+24(FP), CX
	VPXOR Y15, Y15, Y15

rg_sixteen:
	CMPQ CX, $16
	JLT  rg_four
	RELUGRAD(VMOVDQU, 0, Y0, Y4, Y15)
	RELUGRAD(VMOVDQU, 32, Y1, Y5, Y15)
	RELUGRAD(VMOVDQU, 64, Y2, Y6, Y15)
	RELUGRAD(VMOVDQU, 96, Y3, Y7, Y15)
	ADDQ $128, SI
	ADDQ $128, DI
	ADDQ $128, R8
	SUBQ $16, CX
	JMP  rg_sixteen

rg_four:
	CMPQ CX, $4
	JLT  rg_one
	RELUGRAD(VMOVDQU, 0, Y0, Y4, Y15)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	SUBQ $4, CX
	JMP  rg_four

rg_one:
	TESTQ CX, CX
	JZ    rg_done
	RELUGRAD(VMOVQ, 0, X0, X4, X15)
	ADDQ  $8, SI
	ADDQ  $8, DI
	ADDQ  $8, R8
	DECQ  CX
	JMP   rg_one

rg_done:
	VZEROUPPER
	RET

// The top-left indices of a group of four windows relative to the first,
// in the lane order POOL4 works in (windows 0, 2, 1, 3): 0, 4, 2, 6.
DATA pooliota<>+0(SB)/8, $0
DATA pooliota<>+8(SB)/8, $4
DATA pooliota<>+16(SB)/8, $2
DATA pooliota<>+24(SB)/8, $6
GLOBL pooliota<>(SB), RODATA, $32

// Four windows of one output row, outputs DX to DX+3. The row's eight top
// words, loaded as (0 1 2 3) and (4 5 6 7), unpack into the four top-left
// and the four top-right candidates with the windows in lane order
// 0, 2, 1, 3, and the same for the bottom row. Lane k starts from its
// top-left (value in Y2, offset 0 in Y9) and takes top-right, bottom-left,
// bottom-right in turn where VCMPPD GT_OQ says the candidate is greater —
// false for equal values and whenever either side is NaN, like Go's > —
// selecting the value and the candidate's offset (1, inW, inW+1) with the
// same mask. The winner's index is its offset plus the top-left index, and
// one VPERMPD/VPERMQ each puts value and index back in window order. BX is
// the x index of the row's first top-left, R11 a row of x in bytes,
// Y12-Y15 = inW+1, inW, 1 and pooliota. Clobbers AX, R12, R13, Y0-Y7, Y9.
#define POOL4 \
	LEAQ         (BX)(DX*2), AX; \
	LEAQ         (SI)(AX*8), R12; \
	LEAQ         (R12)(R11*1), R13; \
	VMOVUPD      (R12), Y0; \
	VMOVUPD      32(R12), Y1; \
	VUNPCKLPD    Y1, Y0, Y2; \
	VUNPCKHPD    Y1, Y0, Y3; \
	VMOVUPD      (R13), Y0; \
	VMOVUPD      32(R13), Y1; \
	VUNPCKLPD    Y1, Y0, Y4; \
	VUNPCKHPD    Y1, Y0, Y5; \
	VCMPPD       $0x1e, Y2, Y3, Y7; \
	VBLENDVPD    Y7, Y3, Y2, Y2; \
	VANDPD       Y14, Y7, Y9; \
	VCMPPD       $0x1e, Y2, Y4, Y7; \
	VBLENDVPD    Y7, Y4, Y2, Y2; \
	VBLENDVPD    Y7, Y13, Y9, Y9; \
	VCMPPD       $0x1e, Y2, Y5, Y7; \
	VBLENDVPD    Y7, Y5, Y2, Y2; \
	VBLENDVPD    Y7, Y12, Y9, Y9; \
	VMOVQ        AX, X6; \
	VPBROADCASTQ X6, Y6; \
	VPADDQ       Y15, Y6, Y6; \
	VPADDQ       Y6, Y9, Y9; \
	VPERMPD      $0xD8, Y2, Y2; \
	VPERMQ       $0xD8, Y9, Y9; \
	VMOVUPD      Y2, (DI)(DX*8); \
	VMOVDQU      Y9, (R8)(DX*8)

// MaxPool2x2 over the whole stack: rows of outW = inW/2 >= 4 outputs,
// four windows at a time; a row whose outW is not a multiple of four ends
// with its last four windows again, which rewrites the same bits, since
// windows share nothing.
//
// func maxPool2x2AVX2(out *float64, arg *int, x *float64, rows, inW int)
TEXT ·maxPool2x2AVX2(SB), NOSPLIT, $0-40
	MOVQ         out+0(FP), DI
	MOVQ         arg+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         rows+24(FP), CX
	MOVQ         inW+32(FP), R9
	MOVQ         R9, R10
	SHRQ         $1, R10 // outW
	MOVQ         R9, R11
	SHLQ         $3, R11
	VMOVDQU      pooliota<>(SB), Y15
	MOVQ         $1, AX
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14
	VMOVQ        R9, X13
	VPBROADCASTQ X13, Y13
	VPADDQ       Y14, Y13, Y12
	XORQ         BX, BX

mp_row:
	XORQ DX, DX

mp_four:
	LEAQ  4(DX), AX
	CMPQ  AX, R10
	JGT   mp_tail
	POOL4
	ADDQ  $4, DX
	JMP   mp_four

mp_tail:
	CMPQ  DX, R10
	JEQ   mp_next
	LEAQ  -4(R10), DX
	POOL4

mp_next:
	LEAQ (DI)(R10*8), DI
	LEAQ (R8)(R10*8), R8
	LEAQ (BX)(R9*2), BX
	DECQ CX
	JNZ  mp_row
	VZEROUPPER
	RET

// Fill: v broadcast and stored sixteen words per iteration, then four,
// then one at a time.
//
// func fillAVX2(a *float64, n int, v float64)
TEXT ·fillAVX2(SB), NOSPLIT, $0-24
	MOVQ         a+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSD v+16(FP), Y0

fl_sixteen:
	CMPQ    CX, $16
	JLT     fl_four
	VMOVUPD Y0, (DI)
	VMOVUPD Y0, 32(DI)
	VMOVUPD Y0, 64(DI)
	VMOVUPD Y0, 96(DI)
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     fl_sixteen

fl_four:
	CMPQ    CX, $4
	JLT     fl_one
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     fl_four

fl_one:
	TESTQ  CX, CX
	JZ     fl_done
	VMOVSD X0, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JMP    fl_one

fl_done:
	VZEROUPPER
	RET

// The exp sweeps below are element-wise too, and the Go expression each
// one reproduces calls Exp (exp.go): archExp ($GOROOT/src/math/exp_amd64.s)
// on its FMA path, a fixed, branch-free run of IEEE operations on its main
// path. EXP4 is that run on four lanes, instruction for instruction, with
// archExp's constants written the way archExp writes them.
//
// Each routine takes whole groups of four and returns how many elements it
// wrote. It stops, storing nothing of that group, at the first group with
// a lane archExp would take off its main path; the Go side computes that
// group with the scalar expression and calls again after it.

// Every constant is repeated over a 32-byte slot, so that it can be a
// VEX memory operand.
#define DUP4(OFF, V) \
	DATA expdata<>+(OFF)(SB)/8, V; \
	DATA expdata<>+(OFF+8)(SB)/8, V; \
	DATA expdata<>+(OFF+16)(SB)/8, V; \
	DATA expdata<>+(OFF+24)(SB)/8, V

// archExp's constants (LOG2E, LN2U, LN2L, its reduction factor and
// exprodata<>) ...
DUP4(0, $1.4426950408889634073599246810018920)
DUP4(32, $0.69314718055966295651160180568695068359375)
DUP4(64, $0.28235290563031577122588448175013436025525412068e-12)
DUP4(96, $0.0625)
DUP4(128, $2.4801587301587301587e-5)
DUP4(160, $1.9841269841269841270e-4)
DUP4(192, $1.3888888888888888889e-3)
DUP4(224, $8.3333333333333333333e-3)
DUP4(256, $4.1666666666666666667e-2)
DUP4(288, $1.6666666666666666667e-1)
DUP4(320, $0.5)
DUP4(352, $1.0)
DUP4(384, $2.0)
// ... the bounds of its main path as int32 pairs: k <= 1023 (also the
// exponent bias) and k > -1023 ...
DUP4(416, $0x000003FF000003FF)
DUP4(448, $0xFFFFFC01FFFFFC01)
// ... the sign and magnitude masks ...
DUP4(480, $0x8000000000000000)
DUP4(512, $0x7FFFFFFFFFFFFFFF)
// ... and math.tanh's: the 0.625 its branches split at, tanhP and tanhQ.
DUP4(544, $0.625)
DUP4(576, $-9.64399179425052238628e-1)
DUP4(608, $-9.92877231001918586564e1)
DUP4(640, $-1.61468768441708447952e3)
DUP4(672, $1.12811678491632931402e2)
DUP4(704, $2.23548839060100448583e3)
DUP4(736, $4.84406305325125486048e3)
GLOBL expdata<>(SB), RODATA, $768

#define E_LOG2E expdata<>+0(SB)
#define E_LN2U expdata<>+32(SB)
#define E_LN2L expdata<>+64(SB)
#define E_SIXTEENTH expdata<>+96(SB)
#define E_C64 expdata<>+128(SB)
#define E_C56 expdata<>+160(SB)
#define E_C48 expdata<>+192(SB)
#define E_C40 expdata<>+224(SB)
#define E_C32 expdata<>+256(SB)
#define E_C24 expdata<>+288(SB)
#define E_HALF expdata<>+320(SB)
#define E_ONE expdata<>+352(SB)
#define E_TWO expdata<>+384(SB)
#define E_KMAX expdata<>+416(SB)
#define E_KMIN expdata<>+448(SB)
#define E_SIGN expdata<>+480(SB)
#define E_ABS expdata<>+512(SB)
#define E_FIVE8THS expdata<>+544(SB)
#define E_P0 expdata<>+576(SB)
#define E_P1 expdata<>+608(SB)
#define E_P2 expdata<>+640(SB)
#define E_Q0 expdata<>+672(SB)
#define E_Q1 expdata<>+704(SB)
#define E_Q2 expdata<>+736(SB)

// EXP4: Y0 = Exp(Y0) in four lanes, or a jump to BAIL. First the
// test: archExp leaves its main path for a NaN, ±Inf, an argument above
// Overflow, or a k = round(x*LOG2E) whose biased exponent k+1023 is
// outside [1, 0x7FE] (its denormal and overflow exits). All of them show
// in k: a NaN, an infinity or a product too large for an int32 converts
// to 0x80000000, and above Overflow k is at least 1024; so the main path
// is -1023 < k <= 1023 in every lane. Then archExp's avxfma run, each
// scalar instruction become its packed twin: the reduction
// x - k*LN2U - k*LN2L fused, the Taylor polynomial by fused
// multiply-adds, four squarings (the last fused with its +1), and the
// multiply by 2**k built in the exponent field. Clobbers Y1-Y4 and AX.
#define EXP4(BAIL) \
	VMULPD       E_LOG2E, Y0, Y1; \
	VCVTPD2DQY   Y1, X2; \
	VPCMPGTD     E_KMIN, X2, X3; \
	VPCMPGTD     E_KMAX, X2, X4; \
	VPANDN       X3, X4, X4; \
	VMOVMSKPS    X4, AX; \
	CMPL         AX, $15; \
	JNE          BAIL; \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD E_LN2U, Y1, Y0; \
	VFNMADD231PD E_LN2L, Y1, Y0; \
	VMULPD       E_SIXTEENTH, Y0, Y0; \
	VMOVUPD      E_C64, Y1; \
	VFMADD213PD  E_C56, Y0, Y1; \
	VFMADD213PD  E_C48, Y0, Y1; \
	VFMADD213PD  E_C40, Y0, Y1; \
	VFMADD213PD  E_C32, Y0, Y1; \
	VFMADD213PD  E_C24, Y0, Y1; \
	VFMADD213PD  E_HALF, Y0, Y1; \
	VFMADD213PD  E_ONE, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       E_TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       E_TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       E_TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       E_TWO, Y0, Y1; \
	VFMADD213PD  E_ONE, Y1, Y0; \
	VPADDD       E_KMAX, X2, X2; \
	VPMOVZXDQ    X2, Y3; \
	VPSLLQ       $52, Y3, Y3; \
	VMULPD       Y3, Y0, Y0

// Sigmoid: dst = 1/(1 + Exp(-src)). -x is the sign flip Go's negation
// is; the add and the divide are the scalar code's ADDSD and DIVSD.
//
// func sigmoidAVX2(dst, src *float64, n int) int
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	SHLQ    $3, CX
	XORQ    DX, DX // byte offset of the group
	VMOVUPD E_ONE, Y7

sig_four:
	CMPQ    DX, CX
	JGE     sig_done
	VMOVUPD (SI)(DX*1), Y0
	VXORPD  E_SIGN, Y0, Y0
	EXP4(sig_done)
	VADDPD  Y7, Y0, Y0
	VDIVPD  Y0, Y7, Y0
	VMOVUPD Y0, (DI)(DX*1)
	ADDQ    $32, DX
	JMP     sig_four

sig_done:
	SHRQ       $3, DX
	MOVQ       DX, ret+24(FP)
	VZEROUPPER
	RET

// Softmax's exponentials: dst = Exp(src - shift).
//
// func expShiftAVX2(dst, src *float64, n int, shift float64) int
TEXT ·expShiftAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD shift+24(FP), Y7
	SHLQ         $3, CX
	XORQ         DX, DX

ex_four:
	CMPQ    DX, CX
	JGE     ex_done
	VMOVUPD (SI)(DX*1), Y0
	VSUBPD  Y7, Y0, Y0
	EXP4(ex_done)
	VMOVUPD Y0, (DI)(DX*1)
	ADDQ    $32, DX
	JMP     ex_four

ex_done:
	SHRQ       $3, DX
	MOVQ       DX, ret+32(FP)
	VZEROUPPER
	RET

// Tanh: Tanh of exp.go (plain Go, which the compiler does not fuse on amd64)
// with its two computed branches evaluated in every lane and the lane's
// own branch selected:
//   - |x| >= 0.625: s = Exp(2|x|), 1 - 2/(s+1), negated for x < 0
//     (the value is positive, so OR-ing in x's sign bit negates it);
//   - below: x + x*s*P(s)/Q(s), s = x*x, the products and quotient in the
//     scalar code's order; x itself for x = ±0.
// Tanh's third branch, ±1 for |x| > 0.5*MAXLOG, needs no test of its
// own: there s > 2**127, so 1 - 2/(s+1) rounds to exactly 1, until 2|x|
// leaves archExp's main path — where EXP4 hands the group back, as it
// does for a NaN. Y8 = x, Y9 = |x|, Y10 = the first branch, Y14 the
// second.
//
// func tanhAVX2(dst, src *float64, n int) int
TEXT ·tanhAVX2(SB), NOSPLIT, $0-32
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	SHLQ    $3, CX
	XORQ    DX, DX
	VMOVUPD E_TWO, Y6
	VMOVUPD E_ONE, Y7
	VXORPD  Y15, Y15, Y15

th_four:
	CMPQ      DX, CX
	JGE       th_done
	VMOVUPD   (SI)(DX*1), Y8
	VANDPD    E_ABS, Y8, Y9
	VADDPD    Y9, Y9, Y0
	EXP4(th_done)
	VADDPD    Y7, Y0, Y0
	VDIVPD    Y0, Y6, Y1
	VSUBPD    Y1, Y7, Y1
	VANDPD    E_SIGN, Y8, Y2
	VORPD     Y2, Y1, Y10
	VMULPD    Y8, Y8, Y11
	VMULPD    E_P0, Y11, Y12
	VADDPD    E_P1, Y12, Y12
	VMULPD    Y11, Y12, Y12
	VADDPD    E_P2, Y12, Y12
	VADDPD    E_Q0, Y11, Y13
	VMULPD    Y11, Y13, Y13
	VADDPD    E_Q1, Y13, Y13
	VMULPD    Y11, Y13, Y13
	VADDPD    E_Q2, Y13, Y13
	VMULPD    Y11, Y8, Y14
	VMULPD    Y12, Y14, Y14
	VDIVPD    Y13, Y14, Y14
	VADDPD    Y14, Y8, Y14
	VCMPPD    $0x00, Y15, Y8, Y3
	VBLENDVPD Y3, Y8, Y14, Y14
	VCMPPD    $0x1d, E_FIVE8THS, Y9, Y3
	VBLENDVPD Y3, Y10, Y14, Y14
	VMOVUPD   Y14, (DI)(DX*1)
	ADDQ      $32, DX
	JMP       th_four

th_done:
	SHRQ       $3, DX
	MOVQ       DX, ret+24(FP)
	VZEROUPPER
	RET
