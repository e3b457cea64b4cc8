#include "textflag.h"

// func probeAVX512(slot []uint64, lv []uint64, d uint64) (hit bool, done int)
//
// Eight entries of lv per vector: hub = e>>32 checked below len(slot),
// slot[hub] gathered, uint32(e) added, the sum compared unsigned against d.
// The last partial vector is a masked zeroing load, so nothing outside lv
// or slot is read. Registers: BX slot, SI lv, DX len(lv), AX entries
// cleared, Z16 len(slot), Z17 d, Z18 the distance mask, K7 all eight lanes.
// X15 is left alone (Go's internal ABI keeps it zero).
TEXT ·probeAVX512(SB), NOSPLIT, $0-72
	MOVQ         slot_base+0(FP), BX
	MOVQ         slot_len+8(FP), CX
	MOVQ         lv_base+24(FP), SI
	MOVQ         lv_len+32(FP), DX
	MOVQ         d+48(FP), R8
	VPBROADCASTQ CX, Z16
	VPBROADCASTQ R8, Z17
	MOVL         $0xffffffff, R9
	VPBROADCASTQ R9, Z18
	MOVL         $0xff, R9
	KMOVW        R9, K7
	XORQ         AX, AX

full:
	MOVQ      DX, R10
	SUBQ      AX, R10
	CMPQ      R10, $8
	JB        tail
	VMOVDQU64 (SI)(AX*8), Z0
	KMOVW     K7, K1
	JMP       probe

tail:
	TESTQ      R10, R10
	JZ         miss
	MOVQ       R10, CX
	MOVL       $1, R9
	SHLL       CX, R9
	DECL       R9
	KMOVW      R9, K1
	VMOVDQU64.Z (SI)(AX*8), K1, Z0

probe:
	// K1 holds the live lanes, Z0 their entries.
	VPSRLQ     $32, Z0, Z1
	VPCMPUQ    $1, Z16, Z1, K1, K2 // K2 = live lanes whose hub < len(slot)
	KXORW      K1, K2, K3
	KORTESTW   K3, K3
	JNZ        bail
	VPGATHERQQ (BX)(Z1*8), K2, Z2
	VPANDQ     Z18, Z0, Z3
	VPADDQ     Z2, Z3, Z3
	VPCMPUQ    $2, Z17, Z3, K1, K4 // K4 = live lanes whose sum <= d
	KORTESTW   K4, K4
	JNZ        hit
	ADDQ       $8, AX
	CMPQ       AX, DX
	JB         full

miss:
	VZEROUPPER
	MOVB $0, hit+56(FP)
	MOVQ DX, done+64(FP)
	RET

hit:
	VZEROUPPER
	MOVB $1, hit+56(FP)
	MOVQ AX, done+64(FP)
	RET

bail:
	// A hub past the table: hand back the entries cleared so far, and the
	// scalar loop panics on this vector exactly as it would alone.
	VZEROUPPER
	MOVB $0, hit+56(FP)
	MOVQ AX, done+64(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (xcr0 uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL   $0, CX
	XGETBV
	MOVL   AX, xcr0+0(FP)
	RET
