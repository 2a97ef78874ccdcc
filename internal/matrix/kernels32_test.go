package matrix

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"
)

// dotNaive32Ref computes the float32 dot's reference value in float64
// over the widened inputs. The float32 kernel accumulates in float32,
// so it is compared against this within the float32 reassociation
// envelope (ulpBound32), not exactly.
func dotNaive32Ref(a, b []float32) float64 {
	var s float64
	for i, v := range a {
		s += float64(v) * float64(b[i])
	}
	return s
}

// ulpBound32 is ulpBound with float32 machine epsilon: the error
// envelope for n float32 products summed in any association order.
func ulpBound32(a, b []float32) float64 {
	var mag float64
	for i := range a {
		mag += math.Abs(float64(a[i]) * float64(b[i]))
	}
	const eps = 1.1920928955078125e-7 // 2^-23
	n := float64(len(a)) + 8
	bound := 4 * n * eps * mag
	if bound < eps {
		bound = eps
	}
	return bound
}

func randVec32(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func TestDotBatch32(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range []struct{ rows, k int }{{0, 5}, {1, 1}, {3, 0}, {7, 10}, {64, 16}, {100, 3}, {9, 8}} {
		q := randVec32(rng, shape.k)
		block := randVec32(rng, shape.rows*shape.k)
		dst := make([]float32, shape.rows)
		for i := range dst {
			dst[i] = float32(math.NaN()) // must be overwritten
		}
		DotBatch32(dst, block, q)
		for i := 0; i < shape.rows; i++ {
			row := block[i*shape.k : (i+1)*shape.k]
			want := dotNaive32Ref(row, q)
			if diff := math.Abs(float64(dst[i]) - want); diff > ulpBound32(row, q) {
				t.Fatalf("rows=%d k=%d row %d: got %g want %g", shape.rows, shape.k, i, dst[i], want)
			}
		}
	}
}

func TestDotBatch32PanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DotBatch32(make([]float32, 2), make([]float32, 5), make([]float32, 3))
}

// dimensionMajor lays the row-major block (rows×k) out as WalkPages32
// reads it: groups of GroupRows rows, factor j of a group's rows in one
// run of GroupRows floats. rows must be a multiple of GroupRows.
func dimensionMajor(rowMajor []float32, rows, k int) []float32 {
	out := make([]float32, rows*k)
	for r := 0; r < rows; r++ {
		for j := 0; j < k; j++ {
			out[r/GroupRows*GroupRows*k+j*GroupRows+r%GroupRows] = rowMajor[r*k+j]
		}
	}
	return out
}

// testPage is a page as a caller's page slice holds it: the block first,
// then whatever else the caller keeps, which the kernel steps over.
type testPage struct {
	vecs []float32
	meta *int
}

const testPageStride = unsafe.Sizeof(testPage{})

// testPages splits rows of a row-major block (rows×k) into full-height
// dimension-major pages, as a view's shard holds them: the lanes past
// the last row hold pad, which a view's partial last page holds as zeros.
// It returns the pages and the row mask of the last one.
func testPages(rowMajor []float32, rows, k int, pad float32) ([]testPage, uint64) {
	n := (rows + PageRows - 1) / PageRows
	full := make([]float32, n*PageRows*k)
	copy(full, rowMajor[:rows*k])
	for i := rows * k; i < len(full); i++ {
		full[i] = pad
	}
	pages := make([]testPage, n)
	for i := range pages {
		pages[i].vecs = dimensionMajor(full[i*PageRows*k:(i+1)*PageRows*k], PageRows, k)
	}
	return pages, ^uint64(0) >> (n*PageRows - rows)
}

// laneDot is one row of WalkPages32 as a scalar loop in its association —
// the loop core's point reads run — over the row-major copy of the row.
func laneDot(row, q []float32) float32 {
	s := q[0] * row[0]
	for j := 1; j < len(q); j++ {
		s = s + float32(q[j]*row[j])
	}
	return s
}

// scanWant is what WalkPages32 owes a walk from page from to the end
// over pages whose rows score scores (row-major, PageRows a page): the
// first page with a row not strictly worse than worst, the last page's
// rows past last not counted, and that page's mask; (n, 0) past the end.
// It is stated with plain compares, not with survivorsGo.
func scanWant(scores []float32, from int, worst float32, lower bool, last uint64) (int, uint64) {
	n := len(scores) / PageRows
	for i := from; i < n; i++ {
		var m uint64
		for r, key := range scores[i*PageRows : (i+1)*PageRows] {
			if !(lower && key > worst || !lower && key < worst) {
				m |= 1 << r
			}
		}
		if i == n-1 {
			m &= last
		}
		if m != 0 {
			return i - from, m
		}
	}
	return n - from, 0
}

// walkFunc is a page walk with WalkPages32's signature.
type walkFunc func(dst *[PageRows]float32, first *[]float32, stride uintptr, n int, q []float32, worst float32, lowerIsBetter bool, last uint64) (int, uint64)

// walkPages is k's walk with WalkPages32's signature: the flip as
// WalkPages32 derives it.
func (k pageKernel) walkPages(dst *[PageRows]float32, first *[]float32, stride uintptr, n int, q []float32, worst float32, lowerIsBetter bool, last uint64) (int, uint64) {
	var flip uint32
	if !lowerIsBetter {
		flip = 1 << 31
	}
	return k.walk(dst, first, stride, n, q, worst, flip, last)
}

// namedWalk is a page walk and the name a failure reports it by.
type namedWalk struct {
	name string
	walk walkFunc
}

// runnablePageKernels returns the assembly page walks of the build that
// the CPU can run, logging each one it leaves out with the reason.
func runnablePageKernels(tb testing.TB) []pageKernel {
	var ks []pageKernel
	for _, k := range pageKernels {
		if k.absent != "" {
			tb.Logf("the CPU cannot run the %s page walk: %s", k.name, k.absent)
			continue
		}
		ks = append(ks, k)
	}
	return ks
}

// forEachPageKernel runs f in a subtest for each assembly page walk of
// the build, not only the one WalkPages32 dispatches to, and skips one
// the CPU cannot run with the reason.
func forEachPageKernel(t *testing.T, f func(t *testing.T, walk walkFunc)) {
	if len(pageKernels) == 0 {
		t.Log("no assembly page walk in this build")
	}
	for _, k := range pageKernels {
		t.Run(k.name, func(t *testing.T) {
			if k.absent != "" {
				t.Skipf("the CPU cannot run the %s page walk: %s", k.name, k.absent)
			}
			f(t, k.walkPages)
		})
	}
}

// TestWalkPages32 holds every page walk of the build — the portable loop
// and each assembly kernel the CPU can run — to the scalar loop of its
// stated association bit for bit, and to the float64 reference within
// the reassociation envelope, over ranks 1–17, 31 and 64 and shards of
// one row up to three pages, whose last page is full, a group or a
// group's edge away from one, or one row. Every walk a scan can make —
// from each page to the shard's end — must stop where scanWant says,
// with its mask and with that page's scores in dst, for bounds a compare
// can get wrong — NaN (the heap still filling), ±Inf, ±0 (the pad rows
// tie), a key of the page, the best and worst keys — and a random one,
// in both directions; a walk that finds nothing must leave dst alone.
// The pad lanes hold zeros, as a view's do, and NaN, which must not come
// back either.
func TestWalkPages32(t *testing.T) {
	t.Run("go", func(t *testing.T) { testWalkPages32(t, walkPages32) })
	forEachPageKernel(t, testWalkPages32)
	var dst [PageRows]float32
	if i, m := WalkPages32(&dst, nil, testPageStride, 0, []float32{1}, 0, true, 1); i != 0 || m != 0 {
		t.Fatalf("no pages: (%d, %b), want (0, 0)", i, m)
	}
	pages, last := testPages(make([]float32, 2*64), 64, 2, 0)
	for name, scan := range map[string]func(){
		"an empty query": func() { WalkPages32(&dst, &pages[0].vecs, testPageStride, 1, nil, 0, true, last) },
		// The assembly trusts the block length; the portable loop checks it.
		"a block of the wrong rank": func() { walkPages32(&dst, &pages[0].vecs, testPageStride, 1, []float32{1}, 0, true, last) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic on %s", name)
				}
			}()
			scan()
		}()
	}
}

// testWalkPages32 is TestWalkPages32 for one page walk.
func testWalkPages32(t *testing.T, walk walkFunc) {
	rng := rand.New(rand.NewSource(27))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	var dst [PageRows]float32
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 64} {
		for _, rows := range []int{1, 15, 16, 17, 48, 63, 64, 65, 128, 143, 192} {
			q := randVec32(rng, k)
			rowMajor := randVec32(rng, rows*k)
			// The pad lanes' scores stay zero here: last hides them.
			scores := make([]float32, (rows+PageRows-1)/PageRows*PageRows)
			for r := 0; r < rows; r++ {
				scores[r] = laneDot(rowMajor[r*k:(r+1)*k], q)
			}
			lo, hi := slices.Min(scores[:rows]), slices.Max(scores[:rows])
			key := scores[rng.Intn(rows)]
			for _, pad := range []float32{0, nan} {
				pages, last := testPages(rowMajor, rows, k, pad)
				n := len(pages)
				for _, lower := range []bool{true, false} {
					for _, worst := range []float32{nan, inf, -inf, 0, negZero, key, lo, hi, float32(rng.NormFloat64())} {
						for from := 0; from < n; from++ {
							for r := range dst {
								dst[r] = nan // must be overwritten, or left alone
							}
							i, m := walk(&dst, &pages[from].vecs, testPageStride, n-from, q, worst, lower, last)
							wi, wm := scanWant(scores, from, worst, lower, last)
							if i != wi || m != wm {
								t.Fatalf("k=%d rows=%d pad=%v from page %d lower=%v worst=%v: (%d, %064b), want (%d, %064b)", k, rows, pad, from, lower, worst, i, m, wi, wm)
							}
							if m == 0 {
								for r := range dst {
									if dst[r] == dst[r] {
										t.Fatalf("k=%d rows=%d: a walk without survivors wrote dst[%d]", k, rows, r)
									}
								}
								continue
							}
							for r := 0; r < PageRows; r++ {
								if g := (from+i)*PageRows + r; g < rows && math.Float32bits(dst[r]) != math.Float32bits(scores[g]) {
									t.Fatalf("k=%d rows=%d row %d: page %v, scalar lane loop %v", k, rows, g, dst[r], scores[g])
								}
							}
						}
					}
				}
			}
			for r := 0; r < rows; r++ {
				row := rowMajor[r*k : (r+1)*k]
				if diff := math.Abs(float64(scores[r]) - dotNaive32Ref(row, q)); diff > ulpBound32(row, q) {
					t.Fatalf("k=%d rows=%d row %d: lane loop %v, reference %v", k, rows, r, scores[r], dotNaive32Ref(row, q))
				}
			}
		}
	}
}

// TestDotBatchSplitInvariance pins the bit-identity contract from
// kernels.go: a row's score must not depend on which rows share its
// DotBatch call, and Dot is a one-row DotBatch — including groupings
// that land rows in the SIMD kernels' blocked vs remainder paths
// differently.
func TestDotBatchSplitInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{0, 1, 2, 3, 4, 5, 7, 8, 10, 11, 16, 19} {
		const rows = 23
		q := randVec(rng, k)
		block := randVec(rng, rows*k)
		want := make([]float64, rows)
		DotBatch(want, block, q)
		q32 := randVec32(rng, k)
		block32 := randVec32(rng, rows*k)
		want32 := make([]float32, rows)
		DotBatch32(want32, block32, q32)

		// Per-row: single-row batch and Dot must both match exactly.
		for i := 0; i < rows; i++ {
			row := block[i*k : (i+1)*k]
			var one [1]float64
			DotBatch(one[:], row, q)
			if one[0] != want[i] {
				t.Fatalf("k=%d row %d: single-row batch %v != full batch %v", k, i, one[0], want[i])
			}
			if got := Dot(row, q); got != want[i] {
				t.Fatalf("k=%d row %d: Dot %v != batch %v", k, i, got, want[i])
			}
			row32 := block32[i*k : (i+1)*k]
			var one32 [1]float32
			DotBatch32(one32[:], row32, q32)
			if one32[0] != want32[i] {
				t.Fatalf("k=%d row %d: single-row batch32 %v != full batch32 %v", k, i, one32[0], want32[i])
			}
		}

		// Every two-way split of the block.
		got := make([]float64, rows)
		got32 := make([]float32, rows)
		for cut := 0; cut <= rows; cut++ {
			DotBatch(got[:cut], block[:cut*k], q)
			DotBatch(got[cut:], block[cut*k:], q)
			DotBatch32(got32[:cut], block32[:cut*k], q32)
			DotBatch32(got32[cut:], block32[cut*k:], q32)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("k=%d cut=%d row %d: split %v != full %v", k, cut, i, got[i], want[i])
				}
				if got32[i] != want32[i] {
					t.Fatalf("k=%d cut=%d row %d: split32 %v != full32 %v", k, cut, i, got32[i], want32[i])
				}
			}
		}
	}
}

// TestSIMDAgreesWithPortable compares the dispatched kernels against
// the portable Go loops — the row-major ones within the reassociation
// ULP envelope, the page kernel bit for bit — the asm-vs-scalar pin the
// fuzzer also enforces, run deterministically over a grid of shapes.
// Skipped when no SIMD kernel is active (noasm builds, unsupported CPUs)
// since both sides would be the same code.
func TestSIMDAgreesWithPortable(t *testing.T) {
	if SIMD() == "" {
		t.Skip("no SIMD kernel active")
	}
	t.Logf("active kernel set: %s", SIMD())
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 17, 31, 64} {
		for _, rows := range []int{1, 2, 3, 4, 5, 8, 17} {
			q := randVec(rng, k)
			block := randVec(rng, rows*k)
			dst := make([]float64, rows)
			DotBatch(dst, block, q)
			for i := 0; i < rows; i++ {
				row := block[i*k : (i+1)*k]
				want := dot4(row, q)
				if diff := math.Abs(dst[i] - want); diff > ulpBound(row, q) {
					t.Fatalf("k=%d rows=%d row %d: simd %g vs portable %g diff %g", k, rows, i, dst[i], want, diff)
				}
			}
			q32 := randVec32(rng, k)
			block32 := randVec32(rng, rows*k)
			dst32 := make([]float32, rows)
			DotBatch32(dst32, block32, q32)
			for i := 0; i < rows; i++ {
				row := block32[i*k : (i+1)*k]
				want := float64(dot4_32(row, q32))
				if diff := math.Abs(float64(dst32[i]) - want); diff > ulpBound32(row, q32) {
					t.Fatalf("k=%d rows=%d row %d: simd32 %g vs portable32 %g diff %g", k, rows, i, dst32[i], want, diff)
				}
			}
		}
	}
	// The page-scan kernels owe the portable loop every bit, not an
	// envelope: all multiply, round, then add, in one order. Each walk
	// resumes after the page the last one stopped at, as TopKAll's do,
	// and must stop at the same page with the same mask and scores — the
	// dispatched WalkPages32 and every assembly walk the CPU can run.
	t.Run("WalkPages32", func(t *testing.T) { testWalksAgree(t, WalkPages32) })
	forEachPageKernel(t, testWalksAgree)
}

// testWalksAgree is TestSIMDAgreesWithPortable's page leg for one walk.
func testWalksAgree(t *testing.T, walk walkFunc) {
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 64} {
		for _, rows := range []int{15, 16, 48, 64, 80, 143, 320} {
			q := randVec32(rng, k)
			pages, last := testPages(randVec32(rng, rows*k), rows, k, 0)
			n := len(pages)
			worst, lower := float32(rng.NormFloat64())*3, rows%32 == 0
			var got, want [PageRows]float32
			for from := 0; from < n; {
				i, m := walk(&got, &pages[from].vecs, testPageStride, n-from, q, worst, lower, last)
				wi, wm := walkPages32(&want, &pages[from].vecs, testPageStride, n-from, q, worst, lower, last)
				if i != wi || m != wm {
					t.Fatalf("k=%d rows=%d from page %d: simd (%d, %064b) vs portable (%d, %064b)", k, rows, from, i, m, wi, wm)
				}
				for r := range got {
					if math.Float32bits(got[r]) != math.Float32bits(want[r]) {
						t.Fatalf("k=%d rows=%d page %d row %d: simd %v vs portable %v", k, rows, from+i, r, got[r], want[r])
					}
				}
				from += i + 1
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Paired-interleaved kernel benchmarks: scalar, SIMD float64, SIMD
// float32 and each page walk the CPU can run are sampled in ONE timing
// loop so single-core CI drift cannot fake a speedup — the same
// discipline as the gateway benches. ns/op covers one pass of each; the
// per-arm p50s and the headline speedups ride along as custom metrics.
// A page arm walks all pages in one call under a bound no row meets, as
// a full-catalog scan walks a shard once its heap is full, and reports
// page-<kernel>-ns/row (page-go-ns/row where the portable loop is the
// only walk). page-speedup-x is the row-major float32 kernel's time over
// the widest page walk's, the one WalkPages32 dispatches to;
// page-avx512-speedup-x, where the CPU runs both, is the AVX2 walk's
// time over the AVX-512 one's.

var sink32 float32

// dotBatchPortable is the scalar reference arm: the portable loop the
// dispatcher would run under -tags noasm, callable even when SIMD is
// active.
func dotBatchPortable(dst, block, q []float64) {
	k := len(q)
	off := 0
	for i := range dst {
		dst[i] = dot4(block[off:off+k], q)
		off += k
	}
}

func BenchmarkDotBatch(b *testing.B) {
	const rank = 10
	walks := []namedWalk{{"go", walkPages32}}
	if ks := runnablePageKernels(b); len(ks) > 0 {
		walks = walks[:0]
		for _, k := range ks {
			walks = append(walks, namedWalk{k.name, k.walkPages})
		}
	}
	for _, rows := range []int{1000, 10000} {
		rng := rand.New(rand.NewSource(2))
		block := randVec(rng, rows*rank)
		q := randVec(rng, rank)
		block32 := randVec32(rng, rows*rank)
		q32 := randVec32(rng, rank)
		pages, last := testPages(block32, rows, rank, 0)
		var page [PageRows]float32
		dst := make([]float64, rows)
		dst32 := make([]float32, rows)
		b.Run("paired/rows="+itoa(rows), func(b *testing.B) {
			b.ReportAllocs()
			sl := make([]time.Duration, b.N)
			vl := make([]time.Duration, b.N)
			fl := make([]time.Duration, b.N)
			pl := make([][]time.Duration, len(walks))
			for w := range pl {
				pl[w] = make([]time.Duration, b.N)
			}
			// Every key is worse than -Inf when lower is better.
			worst := float32(math.Inf(-1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				dotBatchPortable(dst, block, q)
				t1 := time.Now()
				DotBatch(dst, block, q)
				t2 := time.Now()
				DotBatch32(dst32, block32, q32)
				t3 := time.Now()
				sl[i] = t1.Sub(t0)
				vl[i] = t2.Sub(t1)
				fl[i] = t3.Sub(t2)
				// The arm after DotBatch32 finds the pages colder, so
				// the page arms take turns at going first.
				for j := range walks {
					w := (i + j) % len(walks)
					t4 := time.Now()
					walks[w].walk(&page, &pages[0].vecs, testPageStride, len(pages), q32, worst, true, last)
					pl[w][i] = time.Since(t4)
				}
			}
			b.StopTimer()
			sinkF = dst[0]
			sink32 = dst32[0]
			s50 := medianDur(sl)
			v50 := medianDur(vl)
			f50 := medianDur(fl)
			p50 := make([]time.Duration, len(walks))
			for w, walk := range walks {
				p50[w] = medianDur(pl[w])
				b.ReportMetric(float64(p50[w])/float64(rows), "page-"+walk.name+"-ns/row")
			}
			widest := p50[len(p50)-1]
			b.ReportMetric(float64(s50), "scalar-p50-ns/op")
			b.ReportMetric(float64(v50), "simd-p50-ns/op")
			b.ReportMetric(float64(f50), "f32-p50-ns/op")
			b.ReportMetric(float64(s50)/float64(v50), "simd-speedup-x")
			b.ReportMetric(float64(s50)/float64(f50), "f32-speedup-x")
			b.ReportMetric(float64(f50)/float64(widest), "page-speedup-x")
			if len(walks) > 1 {
				b.ReportMetric(float64(p50[0])/float64(widest), "page-"+walks[len(walks)-1].name+"-speedup-x")
			}
			b.ReportMetric(rank*8, "f64-bytes/row")
			b.ReportMetric(rank*4, "f32-bytes/row")
		})
	}
}

func medianDur(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
