#include "textflag.h"

// func chargeAVX(clocks, cat []float64, s float64)
//
// Four ranks a pass: each column's cells plus s, the column as VADDPD's
// first source as the compiled clocks[r] += s has it as the destination.
//
// Registers: DI clocks, SI cat, CX the rank count, AX the first rank of
// the pass, Y0 s in every lane.
TEXT ·chargeAVX(SB), NOSPLIT, $0-56
	MOVQ         clocks_base+0(FP), DI
	MOVQ         clocks_len+8(FP), CX
	MOVQ         cat_base+24(FP), SI
	VBROADCASTSD s+48(FP), Y0
	XORQ         AX, AX
	TESTQ        CX, CX
	JZ           done

loop:
	VMOVUPD (DI)(AX*8), Y1
	VADDPD  Y0, Y1, Y1     // clocks[r] + s
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD (SI)(AX*8), Y2
	VADDPD  Y0, Y2, Y2     // cat[r] + s
	VMOVUPD Y2, (SI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JB      loop

done:
	VZEROUPPER
	RET
