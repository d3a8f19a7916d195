#include "textflag.h"

// func ringStepAVX(clk, busy, alpha, beta, size []float64)
//
// Four links a pass, with ringStep's arithmetic in its order. later(x, y)
// is VMAXPD with y as the first source (Intel order): it returns the first
// source when it is greater and the second otherwise, ties of ±0 and NaNs
// included, so it keeps the scalar compare's bits. linkTime is VMULPD then
// VADDPD, never fused, each with its first source where the scalar code
// has its destination, so an operation on two NaNs keeps the same payload:
// size·β, then that plus α; the end is the duration plus the start. A
// link's end reads only step-entry values, so the four ends of a pass are
// independent; the end of link i−1 that member i's clock takes is the end
// vector shifted up one lane, its first lane the last end of the pass
// before (member 0 starts from its own clock).
//
// Registers: DI clk, SI busy, R8 α, R9 β, R10 size, AX the first link of
// the pass, CX the link count, Y5 the previous pass's ends.
TEXT ·ringStepAVX(SB), NOSPLIT, $0-120
	MOVQ         clk_base+0(FP), DI
	MOVQ         busy_base+24(FP), SI
	MOVQ         busy_len+32(FP), CX
	MOVQ         alpha_base+48(FP), R8
	MOVQ         beta_base+72(FP), R9
	MOVQ         size_base+96(FP), R10
	VBROADCASTSD (DI), Y5
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           done

loop:
	VMOVUPD    (DI)(AX*8), Y0         // a: clk[i..i+3]
	VMOVUPD    8(DI)(AX*8), Y1        // b: clk[i+1..i+4]
	VMAXPD     Y0, Y1, Y2             // later(a, b)
	VMOVUPD    (SI)(AX*8), Y3
	VMAXPD     Y2, Y3, Y2             // start = later(·, busy)
	VMOVUPD    (R10)(AX*8), Y4
	VMULPD     (R9)(AX*8), Y4, Y4     // size·β
	VADDPD     (R8)(AX*8), Y4, Y4     // dur = size·β + α
	VADDPD     Y2, Y4, Y2             // end = dur + start
	VMOVUPD    Y2, (SI)(AX*8)
	VPERM2F128 $0x21, Y2, Y5, Y6      // previous ends' upper pair, ends' lower pair
	VSHUFPD    $5, Y2, Y6, Y6         // prev: the end of each link's predecessor
	VMAXPD     Y0, Y6, Y6             // later(a, prev)
	VMAXPD     Y6, Y2, Y6             // later(·, end)
	VMOVUPD    Y6, (DI)(AX*8)
	VMOVAPD    Y2, Y5
	ADDQ       $4, AX
	CMPQ       AX, CX
	JB         loop

done:
	VZEROUPPER
	RET

// func ringStepUniformAVX(clk, busy, dur []float64)
//
// ringStepAVX with the duration loaded instead of computed: four loads a
// pass (two of clk, busy and dur) and no multiply. The end is the start
// plus the duration, the start as the first source, as in the compiled
// loop, which adds the loaded duration into the start (ringStep's adds the
// start into the duration it computed; only a NaN meeting a NaN tells the
// two orders apart).
//
// Registers: DI clk, SI busy, R10 dur, AX the first link of the pass, CX
// the link count, Y5 the previous pass's ends.
TEXT ·ringStepUniformAVX(SB), NOSPLIT, $0-72
	MOVQ         clk_base+0(FP), DI
	MOVQ         busy_base+24(FP), SI
	MOVQ         busy_len+32(FP), CX
	MOVQ         dur_base+48(FP), R10
	VBROADCASTSD (DI), Y5
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           udone

uloop:
	VMOVUPD    (DI)(AX*8), Y0         // a: clk[i..i+3]
	VMOVUPD    8(DI)(AX*8), Y1        // b: clk[i+1..i+4]
	VMAXPD     Y0, Y1, Y2             // later(a, b)
	VMOVUPD    (SI)(AX*8), Y3
	VMAXPD     Y2, Y3, Y2             // start = later(·, busy)
	VADDPD     (R10)(AX*8), Y2, Y2    // end = start + dur
	VMOVUPD    Y2, (SI)(AX*8)
	VPERM2F128 $0x21, Y2, Y5, Y6      // previous ends' upper pair, ends' lower pair
	VSHUFPD    $5, Y2, Y6, Y6         // prev: the end of each link's predecessor
	VMAXPD     Y0, Y6, Y6             // later(a, prev)
	VMAXPD     Y6, Y2, Y6             // later(·, end)
	VMOVUPD    Y6, (DI)(AX*8)
	VMOVAPD    Y2, Y5
	ADDQ       $4, AX
	CMPQ       AX, CX
	JB         uloop

udone:
	VZEROUPPER
	RET
