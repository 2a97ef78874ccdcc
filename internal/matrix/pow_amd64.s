//go:build !noasm

#include "textflag.h"

// The AVX-512F split power behind PowSplit (pow.go): math.Pow's general
// case for eight lanes at a time, bit for bit what math.Pow returns on an
// amd64 CPU with AVX and FMA. Each step is the math package's own
// sequence, one vector op for each of its scalar ones:
//
//   - Log is archLog (math/log_amd64.s): its Frexp by bit masks, the
//     k −= 1, f1 *= 2 adjustment below √2/2, and the polynomial in
//     separate multiplies and adds — that code fuses nothing, so neither
//     does this. The constants are its decimal literals.
//   - Exp is archExp's avxfma path (math/exp_amd64.s), which math takes
//     when the CPU has AVX and FMA (useFMA); AVX-512F implies both. Its
//     rounding to an integer, VCVTPD2DQ, rounds as CVTSD2SL does, by
//     MXCSR. The kernel's lanes keep |yf·Log(x)| < 347, so Exp never
//     reaches its overflow or denormal branches.
//   - The squaring loop, the reciprocal for y < 0 and Ldexp are
//     math/pow.go's and math/ldexp.go's, integer exponents in 64-bit lanes.
//
// A lane the kernel cannot vouch for — see PowSplit — keeps its dst slot
// as it was; its bit goes into the returned mask. Each vector's eight
// bits are shifted in at its lane offset. The opmasks: K1 the lanes kept
// so far, K2 and K4 per-step selects, K3 the lanes whose squaring loop
// would have broken out.

DATA powdata<>+0(SB)/8, $0x000FFFFFFFFFFFFF // mantissa mask
DATA powdata<>+8(SB)/8, $0.5                // also Frexp's exponent field
DATA powdata<>+16(SB)/8, $1.0
DATA powdata<>+24(SB)/8, $2.0
DATA powdata<>+32(SB)/8, $7.07106781186547524401e-01 // HSqrt2
DATA powdata<>+40(SB)/8, $6.666666666666735130e-01   // L1
DATA powdata<>+48(SB)/8, $3.999999999940941908e-01   // L2
DATA powdata<>+56(SB)/8, $2.857142874366239149e-01   // L3
DATA powdata<>+64(SB)/8, $2.222219843214978396e-01   // L4
DATA powdata<>+72(SB)/8, $1.818357216161805012e-01   // L5
DATA powdata<>+80(SB)/8, $1.531383769920937332e-01   // L6
DATA powdata<>+88(SB)/8, $1.479819860511658591e-01   // L7
DATA powdata<>+96(SB)/8, $6.93147180369123816490e-01  // Ln2Hi
DATA powdata<>+104(SB)/8, $1.90821492927058770002e-10 // Ln2Lo
DATA powdata<>+112(SB)/8, $1.4426950408889634073599246810018920 // LOG2E
DATA powdata<>+120(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA powdata<>+128(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA powdata<>+136(SB)/8, $0.0625
DATA powdata<>+144(SB)/8, $2.4801587301587301587e-5 // archExp's Taylor terms, highest first
DATA powdata<>+152(SB)/8, $1.9841269841269841270e-4
DATA powdata<>+160(SB)/8, $1.3888888888888888889e-3
DATA powdata<>+168(SB)/8, $8.3333333333333333333e-3
DATA powdata<>+176(SB)/8, $4.1666666666666666667e-2
DATA powdata<>+184(SB)/8, $1.6666666666666666667e-1
DATA powdata<>+192(SB)/8, $23     // lowest biased exponent kept: 2^-1000
DATA powdata<>+200(SB)/8, $2000   // biased exponents kept: 2^-1000 ≤ x < 2^1000
DATA powdata<>+208(SB)/8, $0x3FE  // Frexp's exponent bias
DATA powdata<>+216(SB)/8, $0x3FF
DATA powdata<>+224(SB)/8, $4096   // the squaring loop's break bound
DATA powdata<>+232(SB)/8, $8192
DATA powdata<>+240(SB)/8, $1
DATA powdata<>+248(SB)/8, $2046   // biased exponents of a normal result, less one
GLOBL powdata<>(SB), RODATA, $256

// func powSplitAVX512(dst, xs []float64, yi int64, yf float64, neg bool) (rest uint64)
TEXT ·powSplitAVX512(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ xs_base+24(FP), SI
	MOVQ xs_len+32(FP), BX
	MOVQ yi+48(FP), R8
	MOVBLZX neg+64(FP), R9
	VBROADCASTSD yf+56(FP), Z26
	VBROADCASTSD powdata<>+0(SB), Z31
	VBROADCASTSD powdata<>+8(SB), Z30
	VBROADCASTSD powdata<>+16(SB), Z29
	VBROADCASTSD powdata<>+24(SB), Z28
	VBROADCASTSD powdata<>+32(SB), Z27
	VPBROADCASTQ powdata<>+240(SB), Z25
	VPXORQ Z24, Z24, Z24
	XORQ DX, DX                 // the lanes left
	XORQ CX, CX                 // this vector's lane offset
	MOVQ yf+56(FP), R10
	SHLQ $1, R10                // zero when yf is ±0: x^yf is 1

vec:
	VMOVUPD (SI), Z0

	// Keep lanes with a biased exponent in [23, 2022] and the sign clear,
	// other than x = 1.
	VPSRLQ $52, Z0, Z1
	VPSUBQ.BCST powdata<>+192(SB), Z1, Z2
	VPCMPUQ.BCST $1, powdata<>+200(SB), Z2, K1
	VCMPPD $4, Z29, Z0, K1, K1

	// Frexp: x1 in Z3, xe in Z4.
	VPANDQ Z31, Z0, Z3
	VPORQ Z30, Z3, Z3
	VPSUBQ.BCST powdata<>+208(SB), Z1, Z4

	VMOVAPD Z29, Z5             // a1 = 1
	TESTQ R10, R10
	JEQ squares

	// Log (archLog): k in Z6, f in Z7.
	VPMOVQD Z4, Y6
	VCVTDQ2PD Y6, Z6
	VCMPPD $1, Z27, Z3, K2      // f1 < √2/2
	VMOVAPD Z3, Z7
	VADDPD Z3, Z3, K2, Z7       // f1 *= 2
	VSUBPD Z29, Z6, K2, Z6      // k -= 1
	VSUBPD Z29, Z7, Z7          // f = f1 - 1
	VADDPD Z28, Z7, Z8
	VDIVPD Z8, Z7, Z8           // s = f / (2 + f)
	VMULPD Z8, Z8, Z9           // s2
	VMULPD Z9, Z9, Z10          // s4
	VMULPD.BCST powdata<>+88(SB), Z10, Z11
	VADDPD.BCST powdata<>+72(SB), Z11, Z11
	VMULPD Z10, Z11, Z11
	VADDPD.BCST powdata<>+56(SB), Z11, Z11
	VMULPD Z10, Z11, Z11
	VADDPD.BCST powdata<>+40(SB), Z11, Z11
	VMULPD Z11, Z9, Z9          // t1
	VMULPD.BCST powdata<>+80(SB), Z10, Z11
	VADDPD.BCST powdata<>+64(SB), Z11, Z11
	VMULPD Z10, Z11, Z11
	VADDPD.BCST powdata<>+48(SB), Z11, Z11
	VMULPD Z11, Z10, Z10        // t2
	VADDPD Z10, Z9, Z9          // R
	VMULPD Z30, Z7, Z10
	VMULPD Z7, Z10, Z10         // hfsq
	VADDPD Z10, Z9, Z9          // hfsq + R
	VMULPD Z9, Z8, Z8           // s·(hfsq+R)
	VMULPD.BCST powdata<>+104(SB), Z6, Z9
	VADDPD Z9, Z8, Z8           // + k·Ln2Lo
	VSUBPD Z8, Z10, Z10         // hfsq − …
	VSUBPD Z7, Z10, Z10         // (…) − f
	VMULPD.BCST powdata<>+96(SB), Z6, Z6
	VSUBPD Z10, Z6, Z6          // Log(x)

	// Exp (archExp, FMA path) of yf·Log(x): the result in Z5.
	VMULPD Z26, Z6, Z6
	VMULPD.BCST powdata<>+112(SB), Z6, Z7
	VCVTPD2DQ Z7, Y7
	VCVTDQ2PD Y7, Z8
	VFNMADD231PD.BCST powdata<>+120(SB), Z8, Z6
	VFNMADD231PD.BCST powdata<>+128(SB), Z8, Z6
	VMULPD.BCST powdata<>+136(SB), Z6, Z6
	VBROADCASTSD powdata<>+144(SB), Z9
	VFMADD213PD.BCST powdata<>+152(SB), Z6, Z9
	VFMADD213PD.BCST powdata<>+160(SB), Z6, Z9
	VFMADD213PD.BCST powdata<>+168(SB), Z6, Z9
	VFMADD213PD.BCST powdata<>+176(SB), Z6, Z9
	VFMADD213PD.BCST powdata<>+184(SB), Z6, Z9
	VFMADD213PD Z30, Z6, Z9
	VFMADD213PD Z29, Z6, Z9
	VMULPD Z9, Z6, Z6
	VADDPD Z28, Z6, Z9
	VMULPD Z9, Z6, Z6
	VADDPD Z28, Z6, Z9
	VMULPD Z9, Z6, Z6
	VADDPD Z28, Z6, Z9
	VMULPD Z9, Z6, Z6
	VADDPD Z28, Z6, Z9
	VFMADD213PD Z29, Z9, Z6
	VPMOVSXDQ Y7, Z7
	VPADDQ.BCST powdata<>+216(SB), Z7, Z7
	VPSLLQ $52, Z7, Z7
	VMULPD Z7, Z6, Z5

squares:
	// x^yi by successive squarings; ae in Z6.
	VPXORQ Z6, Z6, Z6
	KXORW K3, K3, K3
	MOVQ R8, R11
	TESTQ R11, R11
	JEQ scale

square:
	VPADDQ.BCST powdata<>+224(SB), Z4, Z7
	VPCMPUQ.BCST $6, powdata<>+232(SB), Z7, K2 // xe outside [−4096, 4096]
	KORW K2, K3, K3
	TESTQ $1, R11
	JEQ nobit
	VMULPD Z3, Z5, Z5
	VPADDQ Z4, Z6, Z6

nobit:
	VMULPD Z3, Z3, Z3
	VPADDQ Z4, Z4, Z4
	VCMPPD $1, Z30, Z3, K4      // x1 < .5
	VADDPD Z3, Z3, K4, Z3
	VPSUBQ Z25, Z4, K4, Z4
	SHRQ $1, R11
	JNE square

scale:
	TESTQ R9, R9
	JEQ ldexp
	VDIVPD Z5, Z29, Z5
	VPSUBQ Z6, Z24, Z6

ldexp:
	// Ldexp of a normal a1: a normal result is a1 with ae added to its
	// exponent field.
	VPSRLQ $52, Z5, Z7
	VPADDQ Z6, Z7, Z7
	VPSUBQ Z25, Z7, Z7
	VPCMPUQ.BCST $1, powdata<>+248(SB), Z7, K1, K1
	KANDNW K1, K3, K1
	VPSLLQ $52, Z6, Z6
	VPADDQ Z6, Z5, Z5
	VMOVUPD Z5, K1, (DI)
	KMOVW K1, AX
	NOTL AX
	ANDL $0xFF, AX
	SHLQ CX, AX
	ORQ AX, DX

	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $8, CX
	SUBQ $8, BX
	JNE vec

	MOVQ DX, rest+72(FP)
	VZEROUPPER
	RET
