package matrix

import "fmt"

// The float32 kernels every PredictView read runs on: a view freezes its
// factor pages as float32 (core/page.go), halving the bytes the
// full-scan rank path streams per row. At rank time the model is
// read-only, so the precision loss is a one-time rounding of the
// published factors — measured by core's TestViewPrecision rather than
// assumed.
//
// DotPage32 is the one that serves: a view stores its pages
// dimension-major, and a page scan is one DotPage32 call, which scores
// the page and filters it for the top-k heap at once. DotBatch32 is
// the row-major kernel a view stored its pages for until then; nothing in
// the product calls it, and bench/probes.go still times it.

// dot4_32 is the portable unrolled float32 kernel behind DotBatch32.
// Accumulation is in float32: the arithmetic matches what the SIMD lanes
// do.
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

// GroupRows is the height of one dimension-major row group, the layout
// DotPage32 reads: one 8-wide vector of a group holds the same factor of
// all its rows.
const GroupRows = 8

// DotPage32 scores one page of rows stored dimension-major in groups of
// GroupRows and returns the page's survivor mask, so that a scan filters
// the scores in the same call that produces them. With k = len(q), row
// r's factor j is block[r/8*8*k + j*8 + r%8], and dst[r] is that row's
// inner product with q. Each group is k consecutive 8-float vectors,
// factor 0 first, so a group costs one broadcast of q[j] and one multiply
// and one add per factor, for eight rows at once, with no horizontal
// reduce and no tail. It panics unless len(dst) is a multiple of
// GroupRows no greater than 64 and len(block) == len(dst)*len(q); a
// zero-length q zeroes dst.
//
// Every row is summed in one association, in every build: s = q[0]·x₀,
// then s = s + q[j]·xⱼ for j = 1…k−1, each product rounded to float32
// before it is added — a multiply and an add, never a fused
// multiply-add. So the AVX2 kernel, the portable loop below and a scalar
// loop over one row written the same way (core's point reads) agree bit
// for bit, and so do builds with and without the assembly.
//
// The mask is Survivors(dst, worst, lowerIsBetter), bit for bit: bit r is
// clear only when dst[r] is strictly worse than worst, and a NaN worst
// lets every row through. The AVX2 kernel compares each group's
// accumulator while it is still in a register; everywhere else the
// portable loop scores the page and survivorsGo compares it.
func DotPage32(dst, block, q []float32, worst float32, lowerIsBetter bool) uint64 {
	k := len(q)
	if len(dst)%GroupRows != 0 || len(dst) > 64 || len(block) != len(dst)*k {
		panic(fmt.Sprintf("matrix: DotPage32 block length %d != rows %d (a multiple of %d, at most 64) x rank %d", len(block), len(dst), GroupRows, k))
	}
	switch {
	case k == 0:
		clear(dst)
	case dotPage32Arch != nil:
		// The sign flip reverses the order for key and bound alike, as
		// in Survivors.
		var flip uint32
		if !lowerIsBetter {
			flip = 1 << 31
		}
		return dotPage32Arch(dst, block, q, worst, flip)
	default:
		dotPage32(dst, block, q)
	}
	return survivorsGo(dst, worst, lowerIsBetter)
}

// dotPage32 is the portable DotPage32, and the reference the assembly is
// tested against. The float32 conversion keeps the compiler from fusing
// the multiply into the add (it may, on arm64): an explicit conversion
// rounds.
func dotPage32(dst, block, q []float32) {
	k := len(q)
	for g := 0; g < len(dst); g += GroupRows {
		d := (*[GroupRows]float32)(dst[g:])
		x := block[g*k : (g+GroupRows)*k]
		for l := range d {
			d[l] = q[0] * x[l]
		}
		for j := 1; j < k; j++ {
			qj, xj := q[j], (*[GroupRows]float32)(x[j*GroupRows:])
			for l := range d {
				d[l] = d[l] + float32(qj*xj[l])
			}
		}
	}
}
