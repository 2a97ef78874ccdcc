package matrix

import (
	"fmt"
	"unsafe"
)

// The float32 kernels every PredictView read runs on: a view freezes its
// factor pages as float32 (core/page.go), halving the bytes the
// full-scan rank path streams per row. At rank time the model is
// read-only, so the precision loss is a one-time rounding of the
// published factors — measured by core's TestViewPrecision rather than
// assumed.
//
// WalkPages32 is the one that serves: a view stores its pages
// dimension-major, and a full-catalog scan walks each shard's pages in
// one WalkPages32 call, which scores every page and filters it for the
// top-k heap, and returns only at a page with survivors. DotBatch32 is
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
// WalkPages32 reads: one 16-float run of a group holds the same factor of
// all its rows, one ZMM vector for the AVX-512 kernel and two YMM vectors
// for the AVX2 one.
const GroupRows = 16

// PageRows is the height of one page WalkPages32 scores: four groups,
// the width of a survivor mask.
const PageRows = 64

// WalkPages32 scores a run of n pages against q, in order, and returns at
// the first page with a survivor: (i, mask) for page i, with its scores
// in dst, or (n, 0) when no page has one. A full-catalog scan calls it
// once per shard and again after each page it hands back, so the kernel
// returns to its caller only where the top-k heap has work to do.
//
// Page i's block is the []float32 at first plus i·stride bytes — core
// passes its first page's block field and the size of its page struct,
// so the kernel walks the page slice itself. Every block holds PageRows
// rows stored dimension-major in groups of GroupRows: with k = len(q),
// row r's factor j is block[r/16*16*k + j*16 + r%16]. A group is k
// consecutive 16-float runs, factor 0 first, so it costs one broadcast
// of q[j] and one multiply and one add per factor for sixteen rows at
// once (two of each on AVX2), with no horizontal reduce and no tail.
// Each block's length must be PageRows·k; the portable loop panics on
// any other, and the assembly trusts it.
//
// Every row is summed in one association, in every build: s = q[0]·x₀,
// then s = s + q[j]·xⱼ for j = 1…k−1, each product rounded to float32
// before it is added — a multiply and an add, never a fused
// multiply-add. So the AVX-512 and AVX2 kernels, the portable loop below
// and a scalar loop over one row written the same way (core's point
// reads) agree bit for bit, and so do builds with and without the
// assembly.
//
// A page's mask is Survivors over its scores, bit for bit: bit r is clear
// only when row r's score is strictly worse than worst, and a NaN worst
// lets every row through. The last page's mask is ANDed with last, the
// rows the caller's final page really holds, so pad lanes never come
// back. dst is written for the page returned only; at (n, 0) it is left
// as it was. It panics when q is empty.
func WalkPages32(dst *[PageRows]float32, first *[]float32, stride uintptr, n int, q []float32, worst float32, lowerIsBetter bool, last uint64) (int, uint64) {
	if len(q) == 0 {
		panic("matrix: WalkPages32 needs a query of rank 1 or more")
	}
	if n <= 0 {
		return n, 0
	}
	if walkPages32Arch != nil {
		// The sign flip reverses the order for key and bound alike, as
		// in Survivors.
		var flip uint32
		if !lowerIsBetter {
			flip = 1 << 31
		}
		return walkPages32Arch(dst, first, stride, n, q, worst, flip, last)
	}
	return walkPages32(dst, first, stride, n, q, worst, lowerIsBetter, last)
}

// walkPages32 is the portable WalkPages32, and the reference the
// assembly is tested against: dotPage32 scores each page into a buffer
// of its own and survivorsGo compares it, so dst changes only when a
// page is handed back, as in the assembly.
func walkPages32(dst *[PageRows]float32, first *[]float32, stride uintptr, n int, q []float32, worst float32, lowerIsBetter bool, last uint64) (int, uint64) {
	var page [PageRows]float32
	for i := 0; i < n; i++ {
		block := *(*[]float32)(unsafe.Add(unsafe.Pointer(first), uintptr(i)*stride))
		if len(block) != PageRows*len(q) {
			panic(fmt.Sprintf("matrix: WalkPages32 block length %d != %d rows x rank %d", len(block), PageRows, len(q)))
		}
		dotPage32(&page, block, q)
		m := survivorsGo(page[:], worst, lowerIsBetter)
		if i == n-1 {
			m &= last
		}
		if m != 0 {
			*dst = page
			return i, m
		}
	}
	return n, 0
}

// dotPage32 scores one page. The float32 conversion keeps the compiler
// from fusing the multiply into the add (it may, on arm64): an explicit
// conversion rounds.
func dotPage32(dst *[PageRows]float32, block, q []float32) {
	k := len(q)
	for g := 0; g < PageRows; g += GroupRows {
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
