//go:build !noasm

#include "textflag.h"

// AVX2+FMA row-major batch inner-product kernels (see kernels.go for
// the dispatch contract), then the dimension-major page kernel and the
// survivor mask. Both batch kernels process four rows per iteration
// against one resident query chunk, with a one-row remainder loop.
// Bit-identity rules the structure:
//
//   - every row owns a single vector accumulator, fed the same chunk
//     sequence and reduced by the same instruction sequence in both the
//     4-row and 1-row paths, so a row's result never depends on which
//     path scored it (=> block splits and Dot-as-one-row-batch are
//     exact);
//   - the scalar tail FMAs onto the reduced vector sum in element
//     order, after the horizontal reduce — scalar VEX ops zero the
//     upper YMM bits, so the reduce must come first anyway.
//
// float64 reduce: [v0 v1 v2 v3] -> (v0+v2)+(v1+v3)
//   (VEXTRACTF128 folds the high lanes, VHADDPD adds the pair).
// float32 reduce: [v0..v7] -> ((v0+v4)+(v1+v5)) + ((v2+v6)+(v3+v7)).

// func dotBatchAVX2(dst, block, q []float64)
TEXT ·dotBatchAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ block_base+24(FP), SI
	MOVQ q_base+48(FP), DX
	MOVQ q_len+56(FP), BX
	MOVQ BX, R10
	SHLQ $3, R10              // row stride in bytes
	LEAQ (R10)(R10*2), R11    // 3 * stride

rows4:
	CMPQ CX, $4
	JL   rows1
	MOVQ DX, R9               // q cursor
	MOVQ BX, R8               // k remaining
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

chunk4:
	CMPQ R8, $4
	JL   reduce4
	VMOVUPD (R9), Y4
	VMOVUPD (SI), Y5
	VFMADD231PD Y4, Y5, Y0
	VMOVUPD (SI)(R10*1), Y5
	VFMADD231PD Y4, Y5, Y1
	VMOVUPD (SI)(R10*2), Y5
	VFMADD231PD Y4, Y5, Y2
	VMOVUPD (SI)(R11*1), Y5
	VFMADD231PD Y4, Y5, Y3
	ADDQ $32, SI
	ADDQ $32, R9
	SUBQ $4, R8
	JMP  chunk4

reduce4:
	VEXTRACTF128 $1, Y0, X4
	VADDPD X4, X0, X0
	VHADDPD X0, X0, X0
	VEXTRACTF128 $1, Y1, X4
	VADDPD X4, X1, X1
	VHADDPD X1, X1, X1
	VEXTRACTF128 $1, Y2, X4
	VADDPD X4, X2, X2
	VHADDPD X2, X2, X2
	VEXTRACTF128 $1, Y3, X4
	VADDPD X4, X3, X3
	VHADDPD X3, X3, X3
	TESTQ R8, R8
	JE   store4

tail4:
	VMOVSD (R9), X4
	VMOVSD (SI), X5
	VFMADD231SD X4, X5, X0
	VMOVSD (SI)(R10*1), X5
	VFMADD231SD X4, X5, X1
	VMOVSD (SI)(R10*2), X5
	VFMADD231SD X4, X5, X2
	VMOVSD (SI)(R11*1), X5
	VFMADD231SD X4, X5, X3
	ADDQ $8, SI
	ADDQ $8, R9
	DECQ R8
	JNZ  tail4

store4:
	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	ADDQ $32, DI
	ADDQ R11, SI              // SI sits at row r+1; hop to row r+4
	SUBQ $4, CX
	JMP  rows4

rows1:
	TESTQ CX, CX
	JE   done64
	MOVQ DX, R9
	MOVQ BX, R8
	VXORPD Y0, Y0, Y0

chunk1:
	CMPQ R8, $4
	JL   reduce1
	VMOVUPD (R9), Y4
	VMOVUPD (SI), Y5
	VFMADD231PD Y4, Y5, Y0
	ADDQ $32, SI
	ADDQ $32, R9
	SUBQ $4, R8
	JMP  chunk1

reduce1:
	VEXTRACTF128 $1, Y0, X4
	VADDPD X4, X0, X0
	VHADDPD X0, X0, X0
	TESTQ R8, R8
	JE   store1

tail1:
	VMOVSD (R9), X4
	VMOVSD (SI), X5
	VFMADD231SD X4, X5, X0
	ADDQ $8, SI
	ADDQ $8, R9
	DECQ R8
	JNZ  tail1

store1:
	VMOVSD X0, (DI)
	ADDQ $8, DI
	DECQ CX
	JMP  rows1

done64:
	VZEROUPPER
	RET

// func dotBatch32AVX2(dst, block, q []float32)
TEXT ·dotBatch32AVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ block_base+24(FP), SI
	MOVQ q_base+48(FP), DX
	MOVQ q_len+56(FP), BX
	MOVQ BX, R10
	SHLQ $2, R10              // row stride in bytes
	LEAQ (R10)(R10*2), R11    // 3 * stride

rows4f:
	CMPQ CX, $4
	JL   rows1f
	MOVQ DX, R9
	MOVQ BX, R8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

chunk4f:
	CMPQ R8, $8
	JL   reduce4f
	VMOVUPS (R9), Y4
	VMOVUPS (SI), Y5
	VFMADD231PS Y4, Y5, Y0
	VMOVUPS (SI)(R10*1), Y5
	VFMADD231PS Y4, Y5, Y1
	VMOVUPS (SI)(R10*2), Y5
	VFMADD231PS Y4, Y5, Y2
	VMOVUPS (SI)(R11*1), Y5
	VFMADD231PS Y4, Y5, Y3
	ADDQ $32, SI
	ADDQ $32, R9
	SUBQ $8, R8
	JMP  chunk4f

reduce4f:
	VEXTRACTF128 $1, Y0, X4
	VADDPS X4, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VEXTRACTF128 $1, Y1, X4
	VADDPS X4, X1, X1
	VHADDPS X1, X1, X1
	VHADDPS X1, X1, X1
	VEXTRACTF128 $1, Y2, X4
	VADDPS X4, X2, X2
	VHADDPS X2, X2, X2
	VHADDPS X2, X2, X2
	VEXTRACTF128 $1, Y3, X4
	VADDPS X4, X3, X3
	VHADDPS X3, X3, X3
	VHADDPS X3, X3, X3
	TESTQ R8, R8
	JE   store4f

tail4f:
	VMOVSS (R9), X4
	VMOVSS (SI), X5
	VFMADD231SS X4, X5, X0
	VMOVSS (SI)(R10*1), X5
	VFMADD231SS X4, X5, X1
	VMOVSS (SI)(R10*2), X5
	VFMADD231SS X4, X5, X2
	VMOVSS (SI)(R11*1), X5
	VFMADD231SS X4, X5, X3
	ADDQ $4, SI
	ADDQ $4, R9
	DECQ R8
	JNZ  tail4f

store4f:
	VMOVSS X0, (DI)
	VMOVSS X1, 4(DI)
	VMOVSS X2, 8(DI)
	VMOVSS X3, 12(DI)
	ADDQ $16, DI
	ADDQ R11, SI
	SUBQ $4, CX
	JMP  rows4f

rows1f:
	TESTQ CX, CX
	JE   done32
	MOVQ DX, R9
	MOVQ BX, R8
	VXORPS Y0, Y0, Y0

chunk1f:
	CMPQ R8, $8
	JL   reduce1f
	VMOVUPS (R9), Y4
	VMOVUPS (SI), Y5
	VFMADD231PS Y4, Y5, Y0
	ADDQ $32, SI
	ADDQ $32, R9
	SUBQ $8, R8
	JMP  chunk1f

reduce1f:
	VEXTRACTF128 $1, Y0, X4
	VADDPS X4, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	TESTQ R8, R8
	JE   store1f

tail1f:
	VMOVSS (R9), X4
	VMOVSS (SI), X5
	VFMADD231SS X4, X5, X0
	ADDQ $4, SI
	ADDQ $4, R9
	DECQ R8
	JNZ  tail1f

store1f:
	VMOVSS X0, (DI)
	ADDQ $4, DI
	DECQ CX
	JMP  rows1f

done32:
	VZEROUPPER
	RET

// Page kernel (DotPage32, kernels32.go): a block is groups of 8 rows
// stored dimension-major, so one YMM load is factor j of a whole group.
// A pass takes eight groups (64 rows) in Y0–Y7: per factor, one
// broadcast of q[j] into Y8, then per group one VMULPS and one VADDPS —
// no FMA, so every row is q[0]·x0 + q[1]·x1 + … with each product
// rounded, exactly as the portable loop computes it. Factor 0 is a bare
// VMULPS, which starts the sum from the first product rather than from
// +0. Leftover groups (fewer than eight) take the one-accumulator loop
// with the same association. R10 is one group's stride in bytes; R13
// walks groups 0–3 and R11 groups 4–7 through the factors.

// func dotPage32AVX2(dst, block, q []float32)
TEXT ·dotPage32AVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ block_base+24(FP), SI
	MOVQ q_base+48(FP), DX
	MOVQ q_len+56(FP), BX
	MOVQ BX, R10
	SHLQ $5, R10              // group stride: rank × 8 floats × 4 bytes
	LEAQ (R10)(R10*2), R12    // 3 × stride

pass8p:
	CMPQ CX, $64
	JL   group1p
	MOVQ SI, R13
	LEAQ (SI)(R10*4), R11
	MOVQ DX, R9
	MOVQ BX, R8
	VBROADCASTSS (R9), Y8
	VMULPS (R13), Y8, Y0
	VMULPS (R13)(R10*1), Y8, Y1
	VMULPS (R13)(R10*2), Y8, Y2
	VMULPS (R13)(R12*1), Y8, Y3
	VMULPS (R11), Y8, Y4
	VMULPS (R11)(R10*1), Y8, Y5
	VMULPS (R11)(R10*2), Y8, Y6
	VMULPS (R11)(R12*1), Y8, Y7
	JMP  next8p

dim8p:
	VBROADCASTSS (R9), Y8
	VMULPS (R13), Y8, Y9
	VADDPS Y9, Y0, Y0
	VMULPS (R13)(R10*1), Y8, Y10
	VADDPS Y10, Y1, Y1
	VMULPS (R13)(R10*2), Y8, Y11
	VADDPS Y11, Y2, Y2
	VMULPS (R13)(R12*1), Y8, Y12
	VADDPS Y12, Y3, Y3
	VMULPS (R11), Y8, Y9
	VADDPS Y9, Y4, Y4
	VMULPS (R11)(R10*1), Y8, Y10
	VADDPS Y10, Y5, Y5
	VMULPS (R11)(R10*2), Y8, Y11
	VADDPS Y11, Y6, Y6
	VMULPS (R11)(R12*1), Y8, Y12
	VADDPS Y12, Y7, Y7

next8p:
	ADDQ $4, R9
	ADDQ $32, R13
	ADDQ $32, R11
	DECQ R8
	JNZ  dim8p
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	LEAQ (SI)(R10*8), SI
	SUBQ $64, CX
	JMP  pass8p

group1p:
	TESTQ CX, CX
	JE   donep
	MOVQ SI, R13
	MOVQ DX, R9
	MOVQ BX, R8
	VBROADCASTSS (R9), Y8
	VMULPS (R13), Y8, Y0
	JMP  next1p

dim1p:
	VBROADCASTSS (R9), Y8
	VMULPS (R13), Y8, Y9
	VADDPS Y9, Y0, Y0

next1p:
	ADDQ $4, R9
	ADDQ $32, R13
	DECQ R8
	JNZ  dim1p
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ R10, SI
	SUBQ $8, CX
	JMP  group1p

donep:
	VZEROUPPER
	RET

// Survivor-mask kernel (survivors.go): one vector compare per 8 keys,
// last vector first, so that each one's bits shift in below those of
// the vectors after it. Predicate 0x1A is NGT_UQ, "not greater than,
// or unordered": a lane's bit is clear only when key > worst, so a NaN
// on either side survives. flip is zero or the sign bit; XORed into key
// and worst alike it makes the same predicate test key < worst.

// func survivors32AVX2(keys []float32, worst float32, flip uint32) uint64
TEXT ·survivors32AVX2(SB), NOSPLIT, $0-40
	MOVQ keys_base+0(FP), SI
	MOVQ keys_len+8(FP), CX
	VBROADCASTSS flip+28(FP), Y2
	VBROADCASTSS worst+24(FP), Y1
	VXORPS Y2, Y1, Y1
	XORQ AX, AX
	SHLQ $2, CX
	JE   maskdone32

mask32:
	VXORPS -32(SI)(CX*1), Y2, Y0
	VCMPPS $0x1A, Y1, Y0, Y0
	VMOVMSKPS Y0, DX
	SHLQ $8, AX
	ORQ  DX, AX
	SUBQ $32, CX
	JNE  mask32

maskdone32:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET
