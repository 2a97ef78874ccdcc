package matrix

import "fmt"

// This file holds the vectorized inner-product kernels behind the
// candidate-ranking fast path (ISSUE 3, SIMD'd in ISSUE 8). The paper's
// runtime-adaptation query — "rank these n candidate services for user
// u" — reduces to n inner products of one query vector (the user's
// latent factors) against n service factor rows. At serving scale that
// is an instruction-count problem in cache and a bandwidth problem
// beyond it, so the kernels are written for both:
//
//   - Dot is 4-way unrolled with four independent accumulators, breaking
//     the loop-carried dependence on a single sum so the FP adds pipeline
//     (the naive loop serializes on one accumulator, one FMA latency per
//     element). It is the float64 product of SGD and Model.Predict.
//   - DotPage32 (kernels32.go) scores a dimension-major block: factor j
//     of eight rows is one vector, so a page costs one broadcast and one
//     multiply and add per factor per eight rows, with no reduce. It is
//     what every full-catalog scan runs on.
//   - DotBatch (and DotBatch32 in kernels32.go) streams a contiguous
//     row-major block past one query vector. Nothing in the product
//     calls them any more; bench/probes.go times both.
//   - On amd64 with AVX2+FMA the kernels are hand-written assembly
//     (kernels_amd64.s), and on arm64 the row-major batch kernels are NEON
//     (kernels_arm64.s), selected once at init by the dispatch_*.go
//     files. Build with `-tags noasm` to force the portable Go loops.
//
// Unrolling reassociates the summation (s0+s2)+(s1+s3) instead of
// (((s0+s1)+s2)+s3 element order), so Dot and DotBatch can differ from
// the naive loop by a few ULPs; FuzzDotKernels bounds the difference by
// the standard n·eps condition-number envelope. The assembly kernels use
// their own (fixed) association, bounded by the same envelope — except
// DotPage32, whose one association every build shares exactly.
//
// Bit-identity invariant: within one build, Dot(a, b) is exactly
// DotBatch of a single row, and a row's DotBatch/DotBatch32 result does
// not depend on which rows share its call. The assembly enforces it by
// construction: Dot is dispatched as a one-row DotBatch call, and the
// multi-row-blocked assembly paths use the same per-row association as
// the one-row path (each row owns one vector accumulator, chunked and
// reduced identically) — TestDotBatchSplitInvariance pins that.

// Dispatch targets installed by the per-architecture init in
// dispatch_amd64.go / dispatch_arm64.go when the CPU qualifies. Nil
// means the portable Go kernels below serve (also forced by the noasm
// build tag — see dispatch_fallback.go).
var (
	simdName       string
	dotArch        func(a, b []float64) float64
	dotBatchArch   func(dst, block, q []float64)
	dotBatch32Arch func(dst, block, q []float32)
	dotPage32Arch  func(dst, block, q []float32)
	// survivors32Arch compares whole vectors of keys for Survivors:
	// len(keys) is a multiple of 8, flip zero or the sign bit. Nil
	// wherever the portable loop serves.
	survivors32Arch func(keys []float32, worst float32, flip uint32) uint64
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
// contiguous row-major block of len(dst) rows — the block streams
// through the cache once while q stays hot. Nothing in the product calls
// it; it is kept for bench/probes.go, which reports it as
// matrix.dotbatch_ns_per_row.
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
