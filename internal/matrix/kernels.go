package matrix

import "fmt"

// This file holds the vectorized inner-product kernels behind the
// candidate-ranking fast path (ISSUE 3, SIMD'd in ISSUE 8). The paper's
// runtime-adaptation query — "rank these n candidate services for user
// u" — reduces to n inner products of one query vector (the user's
// latent factors) against n service factor rows. At serving scale that
// is a memory-bandwidth problem, not a FLOP problem, so the kernels are
// written for the memory system:
//
//   - Dot is 4-way unrolled with four independent accumulators, breaking
//     the loop-carried dependence on a single sum so the FP adds pipeline
//     (the naive loop serializes on one accumulator, one FMA latency per
//     element).
//   - DotBatch / MulVecTo stream a contiguous row-major block of factor
//     rows past one query vector that stays resident in registers/L1:
//     the hardware prefetcher sees a single sequential stream instead of
//     the pointer-chase of per-entity heap slices.
//   - On amd64 with AVX2+FMA and on arm64 (NEON is baseline) the batch
//     kernels are hand-written assembly (kernels_amd64.s /
//     kernels_arm64.s), selected once at init by the dispatch_*.go
//     files. Build with `-tags noasm` to force the portable Go loops.
//
// Unrolling reassociates the summation (s0+s2)+(s1+s3) instead of
// (((s0+s1)+s2)+s3 element order), so results can differ from the naive
// loop by a few ULPs; FuzzDotKernels bounds the difference by the
// standard n·eps condition-number envelope. The assembly kernels use
// their own (fixed) association, bounded by the same envelope.
//
// Bit-identity invariant: within one build, Dot(a, b) is exactly
// DotBatch of a single row, for both precisions. The ranking layer
// depends on this — the candidate path scores with Dot while the
// full-scan path scores with DotBatch over the arena, and
// core.TopKAll's tests compare the two paths with exact equality. The
// assembly enforces it by construction: Dot is dispatched as a
// one-row DotBatch call, and the multi-row-blocked assembly paths use
// the same per-row association as the one-row path (each row owns one
// vector accumulator, chunked and reduced identically), so results are
// also invariant to how a block is split across calls —
// TestDotBatchSplitInvariance pins that.

// Dispatch targets installed by the per-architecture init in
// dispatch_amd64.go / dispatch_arm64.go when the CPU qualifies. Nil
// means the portable Go kernels below serve (also forced by the noasm
// build tag — see dispatch_fallback.go).
var (
	simdName       string
	dotArch        func(a, b []float64) float64
	dotBatchArch   func(dst, block, q []float64)
	dot32Arch      func(a, b []float32) float32
	dotBatch32Arch func(dst, block, q []float32)
)

// SIMD reports the vector instruction set the kernels dispatched to at
// init: "avx2", "neon", or "" when the portable Go loops are serving
// (noasm build, unsupported architecture, or missing CPU features).
func SIMD() string { return simdName }

// Dot4 is the unrolled inner-product kernel shared by the portable Dot
// and DotBatch. It assumes len(b) >= len(a) and reads exactly len(a)
// elements of each; callers are responsible for length checking.
func dot4(a, b []float64) float64 {
	n := len(a)
	b = b[:n] // one bounds check here, none in the loops below
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s2) + (s1 + s3)
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// DotBatch computes dst[i] = block[i*k : (i+1)*k] · q for every i, where
// k = len(q): many inner products of one query vector against a
// contiguous row-major block of len(dst) rows. This is the GEMV-style
// kernel the ranking fast path runs over a PredictView's frozen factor
// arena — the block streams through the cache once while q stays hot.
//
// It panics if len(block) != len(dst)*len(q). A zero-length q zeroes dst.
func DotBatch(dst, block, q []float64) {
	k := len(q)
	if len(block) != len(dst)*k {
		panic(fmt.Sprintf("matrix: DotBatch block length %d != rows %d x rank %d", len(block), len(dst), k))
	}
	if k == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if dotBatchArch != nil {
		dotBatchArch(dst, block, q)
		return
	}
	off := 0
	for i := range dst {
		dst[i] = dot4(block[off:off+k], q)
		off += k
	}
}

// MulBatch computes the GEMM-shaped product behind request-coalesced
// ranking: dst[qi*rows+i] = block[i*k : (i+1)*k] · qs[qi*k : (qi+1)*k]
// for every query qi and block row i, where rows = len(block)/k. The
// caller passes Q query vectors packed contiguously in qs; each query's
// scores land in its own contiguous dst stripe of length rows.
//
// Callers chasing memory bandwidth should hand it cache-sized row
// blocks: the coalesced rank path scans one factor page per call so the
// block stays resident while every query's products stream over it —
// factor bytes are read from DRAM once per batch instead of once per
// request.
//
// Each (query, row) product is computed by the same DotBatch kernel, so
// results are bit-identical to Q independent DotBatch passes. Panics
// when k <= 0 or any length disagrees with the k-derived shape.
func MulBatch(dst, block, qs []float64, k int) {
	rows, nq := mulBatchShape(len(dst), len(block), len(qs), k)
	for qi := 0; qi < nq; qi++ {
		DotBatch(dst[qi*rows:(qi+1)*rows], block, qs[qi*k:(qi+1)*k])
	}
}

// mulBatchShape validates the packed MulBatch/MulBatch32 geometry and
// returns (rows, queries).
func mulBatchShape(lenDst, lenBlock, lenQs, k int) (rows, nq int) {
	if k <= 0 {
		panic(fmt.Sprintf("matrix: MulBatch rank %d must be positive", k))
	}
	rows = lenBlock / k
	nq = lenQs / k
	if lenBlock != rows*k || lenQs != nq*k || lenDst != nq*rows {
		panic(fmt.Sprintf("matrix: MulBatch shape mismatch dst=%d block=%d qs=%d rank=%d", lenDst, lenBlock, lenQs, k))
	}
	return rows, nq
}

// MulVecTo computes dst = m · q (one inner product per row) without
// allocating, writing row i's product to dst[i]. It panics when dst or q
// disagree with the matrix shape.
func (m *Dense) MulVecTo(dst, q []float64) {
	if len(q) != m.cols {
		panic(fmt.Sprintf("matrix: MulVecTo vector length %d != cols %d", len(q), m.cols))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("matrix: MulVecTo dst length %d != rows %d", len(dst), m.rows))
	}
	DotBatch(dst, m.data, q)
}
