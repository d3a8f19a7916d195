#include "textflag.h"

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX          // XCR0: the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// tailMask from byte 32−8p holds p all-ones lanes, then zeros: the mask of
// a strip's last, partial register of p columns.
DATA tailMask<>+0(SB)/8, $0xffffffffffffffff
DATA tailMask<>+8(SB)/8, $0xffffffffffffffff
DATA tailMask<>+16(SB)/8, $0xffffffffffffffff
DATA tailMask<>+24(SB)/8, $0xffffffffffffffff
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
DATA tailMask<>+56(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

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
	VMOVDQU   32(R12)(CX*8), Y14
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
