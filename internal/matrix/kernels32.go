package matrix

import "fmt"

// The float32 kernels every PredictView read runs on: a view freezes its
// factor pages as float32 (core/page.go), halving the bytes the
// full-scan rank path streams per row. At rank time the model is
// read-only, so the precision loss is a one-time rounding of the
// published factors — measured by core's TestViewPrecision rather than
// assumed.
//
// The same bit-identity invariant as the float64 kernels holds: Dot32
// of two vectors equals a single-row DotBatch32, and blocked assembly
// paths match the one-row path per row, so ranking's candidate and
// page-scan paths agree exactly within one build.

// dot4_32 is the portable unrolled float32 kernel shared by Dot32 and
// DotBatch32. Accumulation is in float32: the arithmetic matches what
// the SIMD lanes do, and the error it introduces is what the precision
// tests measure.
func dot4_32(a, b []float32) float32 {
	n := len(a)
	b = b[:n] // one bounds check here, none in the loops below
	var s0, s1, s2, s3 float32
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

// Dot32 returns the float32 inner product of two equal-length vectors.
// It panics if the lengths differ. Within one build it is exactly a
// single-row DotBatch32 (see the bit-identity invariant in kernels.go).
func Dot32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("matrix: dot32 length mismatch %d vs %d", len(a), len(b)))
	}
	if dot32Arch != nil {
		return dot32Arch(a, b)
	}
	return dot4_32(a, b)
}

// DotBatch32 is DotBatch over float32 data: dst[i] = block[i*k:(i+1)*k]
// · q with k = len(q). It panics if len(block) != len(dst)*len(q); a
// zero-length q zeroes dst.
func DotBatch32(dst, block, q []float32) {
	k := len(q)
	if len(block) != len(dst)*k {
		panic(fmt.Sprintf("matrix: DotBatch32 block length %d != rows %d x rank %d", len(block), len(dst), k))
	}
	if k == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	if dotBatch32Arch != nil {
		dotBatch32Arch(dst, block, q)
		return
	}
	off := 0
	for i := range dst {
		dst[i] = dot4_32(block[off:off+k], q)
		off += k
	}
}
