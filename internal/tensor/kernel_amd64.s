#include "textflag.h"

// tailMask from byte 64−8p holds p ≤ 8 all-ones lanes, then zeros: the
// masks of a strip's last, partial registers of p columns.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0xffffffffffffffff
DATA tailMask<>+40(SB)/8, $0xffffffffffffffff
DATA tailMask<>+48(SB)/8, $0xffffffffffffffff
DATA tailMask<>+56(SB)/8, $0xffffffffffffffff
DATA tailMask<>+64(SB)/8, $0
DATA tailMask<>+72(SB)/8, $0
DATA tailMask<>+80(SB)/8, $0
DATA tailMask<>+88(SB)/8, $0
DATA tailMask<>+96(SB)/8, $0
DATA tailMask<>+104(SB)/8, $0
DATA tailMask<>+112(SB)/8, $0
DATA tailMask<>+120(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $128

// TERM points AX at term R11's row of b from the strip's first column and
// broadcasts its coefficient into Y4.
#define TERM \
	MOVQ         (R8)(R11*8), AX; \
	IMULQ        DX, AX; \
	ADDQ         SI, AX; \
	VBROADCASTSD (R10)(R11*8), Y4

// FULL adds Y4 times the four columns at off(AX) into acc: a rounded
// product, then a rounded sum, as the scalar loop does.
#define FULL(off, acc, tmp) \
	VMULPD off(AX), Y4, tmp; \
	VADDPD tmp, acc, acc

// PART is FULL over the lanes of the mask in Y14; the other lanes load
// zero and are never stored.
#define PART(off, acc) \
	VMASKMOVPD off(AX), Y14, Y9; \
	VMULPD     Y9, Y4, Y9;       \
	VADDPD     Y9, acc, acc

// NEXT loops back to label while terms are left.
#define NEXT(label) \
	INCQ R11;     \
	CMPQ R11, R9; \
	JB   label

// func addRowsAVX(dst, b []float64, stride int, ks []int, vs []float64)
//
// For every strip of sixteen columns of dst, then one strip of the last
// one to fifteen: load the strip, add every term's product into it in
// order, store it. Registers: DI the strip of dst, SI the same columns of
// row 0 of b, DX the stride in bytes, R8 ks, R9 the term count, R10 vs,
// R11 the term index, CX the columns left.
TEXT ·addRowsAVX(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ b_base+24(FP), SI
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	MOVQ ks_base+56(FP), R8
	MOVQ ks_len+64(FP), R9
	MOVQ vs_base+80(FP), R10
	TESTQ R9, R9
	JZ    done
	CMPQ  CX, $16
	JB    tail

strip16:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	XORQ    R11, R11

loop16:
	TERM
	FULL(0, Y0, Y5)
	FULL(32, Y1, Y6)
	FULL(64, Y2, Y7)
	FULL(96, Y3, Y8)
	NEXT(loop16)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JAE     strip16

tail:
	// CX = r columns, 0 ≤ r < 16: BX = (r−1)/4 full registers, then one
	// of p = r − 4·BX lanes under the mask in Y14.
	TESTQ     CX, CX
	JZ        done
	LEAQ      -1(CX), BX
	SHRQ      $2, BX
	MOVQ      BX, R12
	SHLQ      $2, R12
	SUBQ      R12, CX
	NEGQ      CX
	LEAQ      tailMask<>(SB), R12
	VMOVDQU   64(R12)(CX*8), Y14
	XORQ      R11, R11
	CMPQ      BX, $1
	JB        tail1
	JE        tail2
	CMPQ      BX, $2
	JE        tail3

	VMOVUPD    (DI), Y0
	VMOVUPD    32(DI), Y1
	VMOVUPD    64(DI), Y2
	VMASKMOVPD 96(DI), Y14, Y3

loop4:
	TERM
	FULL(0, Y0, Y5)
	FULL(32, Y1, Y6)
	FULL(64, Y2, Y7)
	PART(96, Y3)
	NEXT(loop4)
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	VMOVUPD    Y2, 64(DI)
	VMASKMOVPD Y3, Y14, 96(DI)
	JMP        done

tail3:
	VMOVUPD    (DI), Y0
	VMOVUPD    32(DI), Y1
	VMASKMOVPD 64(DI), Y14, Y2

loop3:
	TERM
	FULL(0, Y0, Y5)
	FULL(32, Y1, Y6)
	PART(64, Y2)
	NEXT(loop3)
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	VMASKMOVPD Y2, Y14, 64(DI)
	JMP        done

tail2:
	VMOVUPD    (DI), Y0
	VMASKMOVPD 32(DI), Y14, Y1

loop2:
	TERM
	FULL(0, Y0, Y5)
	PART(32, Y1)
	NEXT(loop2)
	VMOVUPD    Y0, (DI)
	VMASKMOVPD Y1, Y14, 32(DI)
	JMP        done

tail1:
	VMASKMOVPD (DI), Y14, Y0

loop1:
	TERM
	PART(0, Y0)
	NEXT(loop1)
	VMASKMOVPD Y0, Y14, (DI)

done:
	VZEROUPPER
	RET

// NEXTROW points d and ar at the block's row r, one row past pd and pa,
// when the block has more than r rows (CX); otherwise at pd and pa again.
#define NEXTROW(r, pd, pa, d, ar) \
	LEAQ    (pd)(DX*1), d;  \
	LEAQ    (pa)(BX*1), ar; \
	CMPQ    CX, $r;         \
	CMOVQLE pd, d;          \
	CMOVQLE pa, ar

// PROW adds the coefficient of term AX from the row of a ending at ar times
// the panel's row in Y8 and Y9 into acc0 and acc1: two rounded products,
// two rounded sums.
#define PROW(ar, acc0, acc1) \
	VBROADCASTSD (ar)(AX*8), Y10; \
	VMULPD       Y8, Y10, Y11;    \
	VADDPD       Y11, acc0, acc0; \
	VMULPD       Y9, Y10, Y12;    \
	VADDPD       Y12, acc1, acc1

// PTERM adds the term whose row of the panel is in Y8 and Y9 into every
// row of the block, steps BX to the next row of the panel and loops back
// to label while terms are left.
#define PTERM(label) \
	PROW(R11, Y0, Y1); \
	PROW(R12, Y2, Y3); \
	PROW(R13, Y4, Y5); \
	PROW(R14, Y6, Y7); \
	ADDQ DX, BX;       \
	INCQ AX;           \
	JNZ  label

// func addPanelAVX(dst []float64, rows, n int, a []float64, as int, bt []float64, nk int)
//
// For every strip of eight columns, then one strip of the last one to
// seven under the masks in Y14 and Y15: load the strip of the block's four
// rows, add every term into it in order, store it. Registers: DI, R8, R9,
// R10 the strip of the block's rows of dst; R11–R14 the end of each row's
// coefficients, indexed by AX from −nk; SI the strip in the panel's first
// row, BX in the current term's; DX the row length in bytes; CX the
// columns left; Y0–Y7 two registers of each row.
TEXT ·addPanelAVX(SB), NOSPLIT, $0-104
	MOVQ  dst_base+0(FP), DI
	MOVQ  rows+24(FP), CX
	MOVQ  n+32(FP), DX
	SHLQ  $3, DX
	MOVQ  a_base+40(FP), R11
	MOVQ  as+64(FP), BX
	SHLQ  $3, BX
	MOVQ  nk+96(FP), AX
	TESTQ AX, AX
	JZ    pdone
	LEAQ  (R11)(AX*8), R11
	NEXTROW(1, DI, R11, R8, R12)
	NEXTROW(2, R8, R12, R9, R13)
	NEXTROW(3, R9, R13, R10, R14)
	MOVQ  bt_base+72(FP), SI
	MOVQ  n+32(FP), CX
	CMPQ  CX, $8
	JB    ptail

pstrip:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (R8), Y2
	VMOVUPD 32(R8), Y3
	VMOVUPD (R9), Y4
	VMOVUPD 32(R9), Y5
	VMOVUPD (R10), Y6
	VMOVUPD 32(R10), Y7
	MOVQ    SI, BX
	MOVQ    nk+96(FP), AX
	NEGQ    AX

ploop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	PTERM(ploop)
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R8)
	VMOVUPD Y3, 32(R8)
	VMOVUPD Y4, (R9)
	VMOVUPD Y5, 32(R9)
	VMOVUPD Y6, (R10)
	VMOVUPD Y7, 32(R10)
	ADDQ    $64, DI
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, R10
	ADDQ    $64, SI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JAE     pstrip

ptail:
	// CX = p columns, 0 ≤ p < 8: Y14 masks the first min(p, 4) lanes,
	// Y15 the p − 4 after them; the lanes outside load zero and are
	// never stored.
	TESTQ      CX, CX
	JZ         pdone
	SHLQ       $3, CX
	LEAQ       tailMask<>+64(SB), BX
	SUBQ       CX, BX
	VMOVDQU    (BX), Y14
	VMOVDQU    32(BX), Y15
	VMASKMOVPD (DI), Y14, Y0
	VMASKMOVPD 32(DI), Y15, Y1
	VMASKMOVPD (R8), Y14, Y2
	VMASKMOVPD 32(R8), Y15, Y3
	VMASKMOVPD (R9), Y14, Y4
	VMASKMOVPD 32(R9), Y15, Y5
	VMASKMOVPD (R10), Y14, Y6
	VMASKMOVPD 32(R10), Y15, Y7
	MOVQ       SI, BX
	MOVQ       nk+96(FP), AX
	NEGQ       AX

ptloop:
	VMASKMOVPD (BX), Y14, Y8
	VMASKMOVPD 32(BX), Y15, Y9
	PTERM(ptloop)
	VMASKMOVPD Y0, Y14, (DI)
	VMASKMOVPD Y1, Y15, 32(DI)
	VMASKMOVPD Y2, Y14, (R8)
	VMASKMOVPD Y3, Y15, 32(R8)
	VMASKMOVPD Y4, Y14, (R9)
	VMASKMOVPD Y5, Y15, 32(R9)
	VMASKMOVPD Y6, Y14, (R10)
	VMASKMOVPD Y7, Y15, 32(R10)

pdone:
	VZEROUPPER
	RET

// MASK sets R13 to min(CX, 4), CX ≥ 1, and loads the mask of that many
// lanes into Y14, clobbering AX and R12.
#define MASK \
	MOVQ    $4, R13;                \
	CMPQ    CX, R13;                \
	CMOVQLT CX, R13;                \
	MOVQ    R13, AX;                \
	SHLQ    $3, AX;                 \
	LEAQ    tailMask<>+64(SB), R12; \
	SUBQ    AX, R12;                \
	VMOVDQU (R12), Y14

// R2 subtracts f·p + g·u from the four columns of row at off: two rounded
// products, their rounded sum, the rounded difference.
#define R2(off) \
	VMULPD  off(SI), Y4, Y0; \
	VMULPD  off(DX), Y5, Y1; \
	VADDPD  Y1, Y0, Y0;      \
	VMOVUPD off(DI), Y2;     \
	VSUBPD  Y0, Y2, Y2;      \
	VMOVUPD Y2, off(DI)

// func rank2AVX(row, p, u []float64, pc, uc float64)
//
// Registers: DI row, SI p, DX u, CX the columns left, Y4 pc, Y5 uc.
TEXT ·rank2AVX(SB), NOSPLIT, $0-88
	MOVQ         row_base+0(FP), DI
	MOVQ         row_len+8(FP), CX
	MOVQ         p_base+24(FP), SI
	MOVQ         u_base+48(FP), DX
	VBROADCASTSD pc+72(FP), Y4
	VBROADCASTSD uc+80(FP), Y5
	CMPQ         CX, $16
	JB           r2tail

r2loop:
	R2(0)
	R2(32)
	R2(64)
	R2(96)
	ADDQ $128, DI
	ADDQ $128, SI
	ADDQ $128, DX
	SUBQ $16, CX
	CMPQ CX, $16
	JAE  r2loop

r2tail:
	// Up to four columns at a time under the mask in Y14; the lanes
	// outside it load zero and are never stored.
	TESTQ      CX, CX
	JZ         r2done
	MASK
	VMASKMOVPD (SI), Y14, Y0
	VMULPD     Y0, Y4, Y0
	VMASKMOVPD (DX), Y14, Y1
	VMULPD     Y1, Y5, Y1
	VADDPD     Y1, Y0, Y0
	VMASKMOVPD (DI), Y14, Y2
	VSUBPD     Y0, Y2, Y2
	VMASKMOVPD Y2, Y14, (DI)
	ADDQ       $32, DI
	ADDQ       $32, SI
	ADDQ       $32, DX
	SUBQ       R13, CX
	JMP        r2tail

r2done:
	VZEROUPPER
	RET

// ROT applies the rotation in Y4 (c) and Y5 (s) to the four columns at
// off: x from the row at SI, y the moving row in register y. The row at
// BX, one below, takes s·x + c·y; y becomes c·x − s·y. Each product and
// sum is rounded, as in the scalar loop.
#define ROT(off, y) \
	VMOVUPD off(SI), Y6; \
	VMULPD  Y6, Y5, Y7;  \
	VMULPD  y, Y4, Y8;   \
	VADDPD  Y8, Y7, Y7;  \
	VMOVUPD Y7, off(BX); \
	VMULPD  Y6, Y4, Y7;  \
	VMULPD  y, Y5, Y8;   \
	VSUBPD  Y8, Y7, y

// ROTM is ROT on the lanes of the mask in Y14.
#define ROTM(y) \
	VMASKMOVPD (SI), Y14, Y6; \
	VMULPD     Y6, Y5, Y7;    \
	VMULPD     y, Y4, Y8;     \
	VADDPD     Y8, Y7, Y7;    \
	VMASKMOVPD Y7, Y14, (BX); \
	VMULPD     Y6, Y4, Y7;    \
	VMULPD     y, Y5, Y8;     \
	VSUBPD     Y8, Y7, y

// COEFS broadcasts rotation R10's c into Y4 and s into Y5, steps R10 to
// the next, and moves the row pointers one row up: BX to SI's row, SI to
// the row above.
#define COEFS \
	VBROADCASTSD (R10), Y4;  \
	VBROADCASTSD 8(R10), Y5; \
	ADDQ         $16, R10;   \
	MOVQ         SI, BX;     \
	SUBQ         DX, SI

// func rotateSweepAVX(q []float64, n int, cs []float64)
//
// For every strip of sixteen columns, then strips of four with the last
// under a mask: load the strip of the last row into the moving registers,
// apply every rotation climbing one row each, store the moving registers
// into the first row. Registers: DI the strip in the last row, DX the
// stride in bytes, CX the columns left, R8 cs, R9 the rotation count, R10
// the next rotation, R11 the rotations left, SI the row being rotated in,
// BX the row below it.
TEXT ·rotateSweepAVX(SB), NOSPLIT, $0-56
	MOVQ  q_base+0(FP), DI
	MOVQ  n+24(FP), CX
	MOVQ  CX, DX
	SHLQ  $3, DX
	MOVQ  cs_base+32(FP), R8
	MOVQ  cs_len+40(FP), R9
	SHRQ  $1, R9
	TESTQ R9, R9
	JZ    rsdone
	MOVQ  R9, AX
	IMULQ DX, AX
	ADDQ  AX, DI
	CMPQ  CX, $16
	JB    rstail

rsstrip:
	MOVQ    DI, SI
	MOVQ    R8, R10
	MOVQ    R9, R11
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3

rsrot:
	COEFS
	ROT(0, Y0)
	ROT(32, Y1)
	ROT(64, Y2)
	ROT(96, Y3)
	DECQ R11
	JNZ  rsrot
	VMOVUPD Y0, (SI)
	VMOVUPD Y1, 32(SI)
	VMOVUPD Y2, 64(SI)
	VMOVUPD Y3, 96(SI)
	ADDQ    $128, DI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JAE     rsstrip

rstail:
	TESTQ      CX, CX
	JZ         rsdone
	MASK
	MOVQ       DI, SI
	MOVQ       R8, R10
	MOVQ       R9, R11
	VMASKMOVPD (SI), Y14, Y0

rstailrot:
	COEFS
	ROTM(Y0)
	DECQ       R11
	JNZ        rstailrot
	VMASKMOVPD Y0, Y14, (SI)
	ADDQ       $32, DI
	SUBQ       R13, CX
	JMP        rstail

rsdone:
	VZEROUPPER
	RET
