#include "textflag.h"

// Lane masks for the in-register stages (j = 1 and j = 2), one pair of
// 32-byte rows per (j, k) pattern: the first row serves registers in a
// descending block (i&k == 0), the second registers in an ascending
// block. A set lane swaps when its partner strictly precedes it; a clear
// lane swaps when it strictly precedes its partner. That is the scalar
// rule seen from each end of a pair: the lower lane of a descending
// block (and the upper lane of an ascending one) must end up holding the
// element that comes first.
//
// Row pair 0: j = 1, k = 2. The direction flips every two lanes, so
// lanes 0-1 descend and 2-3 ascend; i&2 is always 0 for i%4 == 0, so the
// second row is never read and repeats the first.
DATA stageMasks<>+0x00(SB)/8, $-1
DATA stageMasks<>+0x08(SB)/8, $0
DATA stageMasks<>+0x10(SB)/8, $0
DATA stageMasks<>+0x18(SB)/8, $-1
DATA stageMasks<>+0x20(SB)/8, $-1
DATA stageMasks<>+0x28(SB)/8, $0
DATA stageMasks<>+0x30(SB)/8, $0
DATA stageMasks<>+0x38(SB)/8, $-1
// Row pair 1: j = 1, k >= 4 (lower lanes 0 and 2).
DATA stageMasks<>+0x40(SB)/8, $-1
DATA stageMasks<>+0x48(SB)/8, $0
DATA stageMasks<>+0x50(SB)/8, $-1
DATA stageMasks<>+0x58(SB)/8, $0
DATA stageMasks<>+0x60(SB)/8, $0
DATA stageMasks<>+0x68(SB)/8, $-1
DATA stageMasks<>+0x70(SB)/8, $0
DATA stageMasks<>+0x78(SB)/8, $-1
// Row pair 2: j = 2, k >= 4 (lower lanes 0 and 1).
DATA stageMasks<>+0x80(SB)/8, $-1
DATA stageMasks<>+0x88(SB)/8, $-1
DATA stageMasks<>+0x90(SB)/8, $0
DATA stageMasks<>+0x98(SB)/8, $0
DATA stageMasks<>+0xa0(SB)/8, $0
DATA stageMasks<>+0xa8(SB)/8, $0
DATA stageMasks<>+0xb0(SB)/8, $-1
DATA stageMasks<>+0xb8(SB)/8, $-1
GLOBL stageMasks<>(SB), RODATA|NOPTR, $0xc0

// IN_REGISTER_CE finishes one in-register compare-exchange of the four
// lanes at element BX. On entry Y0/Y1 hold the keys/indices and Y2/Y3
// their partners; R10/R11 address the descending/ascending mask rows,
// R13 holds the lower-lane bits, and AX accumulates the swap count.
#define IN_REGISTER_CE \
	VPCMPGTQ  Y0, Y2, Y4; \
	VPCMPGTQ  Y2, Y0, Y5; \
	VPCMPEQQ  Y0, Y2, Y6; \
	VPCMPGTQ  Y3, Y1, Y7; \
	VPCMPGTQ  Y1, Y3, Y8; \
	VPAND     Y6, Y7, Y7; \
	VPAND     Y6, Y8, Y8; \
	VPOR      Y7, Y4, Y4; \
	VPOR      Y8, Y5, Y5; \
	MOVQ      R10, R12; \
	TESTQ     R8, BX; \
	CMOVQNE   R11, R12; \
	VMOVDQU   (R12), Y9; \
	VPBLENDVB Y9, Y4, Y5, Y4; \
	VPBLENDVB Y4, Y2, Y0, Y0; \
	VPBLENDVB Y4, Y3, Y1, Y1; \
	VMOVDQU   Y0, (SI)(BX*8); \
	VMOVDQU   Y1, (DI)(BX*8); \
	VMOVMSKPD Y4, DX; \
	ANDL      R13, DX; \
	POPCNTL   DX, DX; \
	ADDQ      DX, AX; \
	ADDQ      $4, BX

// func stageAVX2(keys, idx []int, k, j int) (swaps int)
TEXT ·stageAVX2(SB), NOSPLIT, $0-72
	MOVQ keys_base+0(FP), SI
	MOVQ keys_len+8(FP), CX
	MOVQ idx_base+24(FP), DI
	MOVQ k+48(FP), R8
	MOVQ j+56(FP), R9
	XORQ AX, AX
	CMPQ R9, $2
	JLE  inRegister

	// j >= 4: four consecutive lanes of a run and their four partners,
	// j lanes on, each fill one register. Within a run of j lanes the
	// direction is fixed, so the run
	// names its two sides F and S such that S strictly preceding F is
	// the swap condition: (lower, upper) in a descending run, (upper,
	// lower) in an ascending one.
	XORQ BX, BX

run:
	MOVQ  BX, R10
	LEAQ  (BX)(R9*1), R11
	TESTQ R8, BX
	JEQ   runSides
	XCHGQ R10, R11

runSides:
	MOVQ R9, R12

pairs:
	VMOVDQU   (SI)(R10*8), Y0
	VMOVDQU   (SI)(R11*8), Y1
	VMOVDQU   (DI)(R10*8), Y2
	VMOVDQU   (DI)(R11*8), Y3
	VPCMPGTQ  Y0, Y1, Y4        // key S > key F
	VPCMPEQQ  Y0, Y1, Y5
	VPCMPGTQ  Y3, Y2, Y6        // index F > index S
	VPAND     Y5, Y6, Y6
	VPOR      Y6, Y4, Y4        // S strictly precedes F: swap
	VPBLENDVB Y4, Y1, Y0, Y7
	VPBLENDVB Y4, Y0, Y1, Y8
	VPBLENDVB Y4, Y3, Y2, Y9
	VPBLENDVB Y4, Y2, Y3, Y10
	VMOVDQU   Y7, (SI)(R10*8)
	VMOVDQU   Y8, (SI)(R11*8)
	VMOVDQU   Y9, (DI)(R10*8)
	VMOVDQU   Y10, (DI)(R11*8)
	VMOVMSKPD Y4, DX
	POPCNTL   DX, DX
	ADDQ      DX, AX
	ADDQ      $4, R10
	ADDQ      $4, R11
	SUBQ      $4, R12
	JNZ       pairs

	LEAQ (BX)(R9*2), BX
	CMPQ BX, CX
	JLT  run
	JMP  done

inRegister:
	// j = 1 or 2: each register holds whole pairs; the partner comes
	// from a lane permutation of the same register.
	LEAQ stageMasks<>(SB), R10
	MOVQ $5, R13                // j = 1: lower lanes 0 and 2
	CMPQ R9, $1
	JNE  maskJ2
	CMPQ R8, $2
	JEQ  maskRows
	ADDQ $0x40, R10
	JMP  maskRows

maskJ2:
	ADDQ $0x80, R10
	MOVQ $3, R13                // j = 2: lower lanes 0 and 1

maskRows:
	LEAQ 0x20(R10), R11
	XORQ BX, BX
	CMPQ R9, $1
	JEQ  loopJ1

loopJ2:
	VMOVDQU (SI)(BX*8), Y0
	VMOVDQU (DI)(BX*8), Y1
	VPERMQ  $0x4E, Y0, Y2       // swap the 128-bit halves: lane l <-> l^2
	VPERMQ  $0x4E, Y1, Y3
	IN_REGISTER_CE
	CMPQ    BX, CX
	JLT     loopJ2
	JMP     done

loopJ1:
	VMOVDQU (SI)(BX*8), Y0
	VMOVDQU (DI)(BX*8), Y1
	VPSHUFD $0x4E, Y0, Y2       // swap the qwords of each half: lane l <-> l^1
	VPSHUFD $0x4E, Y1, Y3
	IN_REGISTER_CE
	CMPQ    BX, CX
	JLT     loopJ1

done:
	VZEROUPPER
	MOVQ AX, swaps+64(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xcr0() uint32
TEXT ·xcr0(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, ret+0(FP)
	RET
