#include "textflag.h"

// The AVX2 Exp(1) weight kernel: log1pWeight's IEEE operations, in its
// order, on four lanes at a time. Multiplies and adds stay separate
// instructions (no FMA), so every lane rounds exactly as the scalar code
// does. See expweights_amd64.go.

// CONST4 defines a 32-byte read-only symbol holding v four times: a
// 256-bit memory operand with the same value in every lane.
#define CONST4(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(expHi84, $0x4530000000000000)    // exponent bits of 2⁸⁴
CONST4(expHi52, $0x4330000000000000)    // exponent bits of 2⁵²
CONST4(exp2p84p52, $0x4530000000100000) // 2⁸⁴ + 2⁵²
CONST4(expBias52, $0x43300000000003ff)  // 2⁵² + 1023
CONST4(expNegUlp, $0xbca0000000000000)  // -2⁻⁵³
CONST4(expOne, $0x3ff0000000000000)     // 1.0
CONST4(expHalf, $0x3fe0000000000000)    // 0.5
CONST4(expTwo, $0x4000000000000000)     // 2.0
CONST4(expSign, $0x8000000000000000)    // the sign bit
CONST4(expMant, $0x000fffffffffffff)    // mantissa mask
CONST4(expSqrt2, $0x0006a09e667f3bcc)   // mantissa of √2, less one
CONST4(expThree, $3)                   // 3
CONST4(expSmall, $0x0000000000ffffff)   // 2²⁴ - 1
CONST4(expLn2Hi, $0x3fe62e42fee00000)
CONST4(expLn2Lo, $0x3dea39ef35793c76)
CONST4(expLp1, $0x3fe5555555555593)
CONST4(expLp2, $0x3fd999999997fa04)
CONST4(expLp3, $0x3fd2492494229359)
CONST4(expLp4, $0x3fcc71c51d8e78af)
CONST4(expLp5, $0x3fc7466496cb03de)
CONST4(expLp6, $0x3fc39a09d078c69f)
CONST4(expLp7, $0x3fc2f112df3e5244)

// func expWeightsAVX2(ws []float64, ms []uint64) (ok bool)
TEXT ·expWeightsAVX2(SB), NOSPLIT, $0-49
	MOVQ ws_base+0(FP), DI
	MOVQ ms_base+24(FP), SI
	MOVQ ms_len+32(FP), CX
	SHRQ $2, CX
	VPCMPEQQ Y15, Y15, Y15 // lanes that took no rare branch: all so far
	TESTQ    CX, CX
	JZ       done

loop:
	VMOVDQU (SI), Y0 // m

	// x = -(m·2⁻⁵³), exact as in log1pWeight: m < 2⁵³ converts exactly,
	// its high 32 bits through the exponent of 2⁸⁴ and its low 32 through
	// that of 2⁵², and the scaling by a power of two is exact.
	VPSRLQ   $32, Y0, Y1
	VPOR     expHi84<>(SB), Y1, Y1
	VSUBPD   exp2p84p52<>(SB), Y1, Y1
	VPBLENDD $0xaa, expHi52<>(SB), Y0, Y2
	VADDPD   Y2, Y1, Y1
	VMULPD   expNegUlp<>(SB), Y1, Y1 // x

	// log1p's k ≠ 0 path: u = 1+x, normalised into (√2/2, √2). It covers
	// the k = 0 path too, with no select: there m ≤ 2⁵²-0x6a09e667f3bcd,
	// so u ∈ (√2/2, 1) is exact, normalises to itself with k = 0, and
	// f = u-1 = x exactly; and with k = 0 the k ≠ 0 formula below
	// computes the k = 0 one's bits for every nonzero weight.
	// TestLog1pWeightMatchesLog1p runs ±2¹⁶ around that edge through
	// this kernel.
	VADDPD   expOne<>(SB), Y1, Y2      // u
	VPAND    expMant<>(SB), Y2, Y3     // iu: the mantissa of u
	VPSRLQ   $52, Y2, Y4               // the biased exponent of u
	VPCMPGTQ expSqrt2<>(SB), Y3, Y5    // iu ≥ mantissa of √2: normalise u/2
	VPSUBQ   Y5, Y4, Y4                // k+1023, one more where Y5
	VPOR     expHi52<>(SB), Y4, Y4
	VSUBPD   expBias52<>(SB), Y4, Y4   // float64(k)
	VPSLLQ   $52, Y5, Y6
	VPADDQ   expOne<>(SB), Y6, Y6      // exponent bits of 1, or of 1/2 where Y5
	VPOR     Y3, Y6, Y6                // normalised u
	VSUBPD   expOne<>(SB), Y6, Y6      // f = u-1

	// Clear the lanes of Y15 that take one of log1p's rare branches:
	// m < 2²⁴, or a zero normalised iu. That iu is iu, or (2⁵²-iu)>>2
	// where Y5, so it is zero just when iu is 0, 2⁵²-3, 2⁵²-2 or 2⁵²-1,
	// that is when (iu+3) mod 2⁵² ≤ 3.
	VPCMPGTQ expSmall<>(SB), Y0, Y7
	VPAND    Y7, Y15, Y15
	VPADDQ   expThree<>(SB), Y3, Y7
	VPAND    expMant<>(SB), Y7, Y7
	VPCMPGTQ expThree<>(SB), Y7, Y7
	VPAND    Y7, Y15, Y15

	// hfsq = 0.5*f*f, s = f/(2+f), z = s*s.
	VMULPD expHalf<>(SB), Y6, Y9
	VMULPD Y6, Y9, Y9
	VADDPD expTwo<>(SB), Y6, Y10
	VDIVPD Y10, Y6, Y10
	VMULPD Y10, Y10, Y11

	// R = z*(Lp1+z*(Lp2+z*(Lp3+z*(Lp4+z*(Lp5+z*(Lp6+z*Lp7)))))).
	VMULPD expLp7<>(SB), Y11, Y12
	VADDPD expLp6<>(SB), Y12, Y12
	VMULPD Y11, Y12, Y12
	VADDPD expLp5<>(SB), Y12, Y12
	VMULPD Y11, Y12, Y12
	VADDPD expLp4<>(SB), Y12, Y12
	VMULPD Y11, Y12, Y12
	VADDPD expLp3<>(SB), Y12, Y12
	VMULPD Y11, Y12, Y12
	VADDPD expLp2<>(SB), Y12, Y12
	VMULPD Y11, Y12, Y12
	VADDPD expLp1<>(SB), Y12, Y12
	VMULPD Y11, Y12, Y12

	// -(k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)).
	VADDPD Y9, Y12, Y12
	VMULPD Y10, Y12, Y12
	VMULPD expLn2Lo<>(SB), Y4, Y13
	VADDPD Y13, Y12, Y12
	VSUBPD Y12, Y9, Y12
	VSUBPD Y6, Y12, Y12
	VMULPD expLn2Hi<>(SB), Y4, Y13
	VSUBPD Y12, Y13, Y12
	VXORPD expSign<>(SB), Y12, Y12

	VMOVUPD Y12, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop

done:
	VMOVMSKPD Y15, AX
	CMPQ      AX, $15
	SETEQ     ok+48(FP)
	VZEROUPPER
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
