#include "textflag.h"

// The 0x0f byte mask that splits each byte into its two nibbles, loaded
// with a VEX instruction: building it with a legacy-SSE MOVQ would cost
// an SSE/AVX transition on every call.
DATA nibbleMask<>+0(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $8

// func mulAVX2(tbl *[32]byte, src, dst []byte)
// dst[i] = tbl[src[i]&15] ^ tbl[16+src[i]>>4] for the first
// len(src)&^31 bytes; the caller maps the tail.
TEXT ·mulAVX2(SB), NOSPLIT, $0-56
	MOVQ tbl+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
	SHRQ $5, CX
	JZ   mulDone
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	VPBROADCASTQ   nibbleMask<>(SB), Y2

mulLoop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     mulLoop
	VZEROUPPER

mulDone:
	RET

// func mulXorAVX2(tbl *[32]byte, src, dst []byte)
// dst[i] ^= tbl[src[i]&15] ^ tbl[16+src[i]>>4] for the first
// len(src)&^31 bytes; the caller maps the tail.
TEXT ·mulXorAVX2(SB), NOSPLIT, $0-56
	MOVQ tbl+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
	SHRQ $5, CX
	JZ   xorDone
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	VPBROADCASTQ   nibbleMask<>(SB), Y2

xorLoop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     xorLoop
	VZEROUPPER

xorDone:
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (a, d uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, a+0(FP)
	MOVL DX, d+4(FP)
	RET
