//go:build arm64 && !noasm

package matrix

// NEON dispatch for the ranking kernels. Advanced SIMD (NEON) with
// 64-bit FP lanes is architecturally mandatory on AArch64, so there is
// no runtime feature probe — the kernels are always eligible unless the
// noasm tag opts out. WalkPages32 runs its portable loop here: it is the
// kernel every full-catalog scan serves from, and CI has no arm64 machine
// to execute a NEON version of it.

// dotBatchNEON is the float64 batch kernel in kernels_arm64.s.
//
//go:noescape
func dotBatchNEON(dst, block, q []float64)

// dotBatch32NEON is the float32 twin.
//
//go:noescape
func dotBatch32NEON(dst, block, q []float32)

func init() {
	simdName = "neon"
	dotBatchArch = dotBatchNEON
	dotBatch32Arch = dotBatch32NEON
	// Dot as a one-row batch call: the bit-identity invariant in
	// kernels.go holds by construction.
	dotArch = func(a, b []float64) float64 {
		var d [1]float64
		dotBatchNEON(d[:1], a, b)
		return d[0]
	}
}
