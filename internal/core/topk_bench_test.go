package core

import (
	"sort"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/transform"
)

// Benchmarks for the candidate-ranking fast path (ISSUE 3, reshaped by
// ISSUE 8 into paired-interleaved form). Every arm of a comparison runs
// inside the SAME timing loop, per-arm latencies are collected and the
// p50s reported as metrics — so single-core CI frequency drift between
// two separately-run benchmarks can't fake (or hide) a speedup. The
// headline ns/op of each benchmark is the sum of all its arms and is
// not meaningful on its own; read the *-p50-ns/op and *-speedup-x
// metrics instead.
//
// The "legacy" arm reproduces the pre-change serving path — per-
// candidate map lookup, naive (non-unrolled) dot product, Sigmoid+
// Backward transform on EVERY candidate, full O(n log n) sort.Slice,
// then truncate to k. The "heap" arm is the shipped candidate path
// (appendTopK), "scan" is the full-catalog arena path (TopKAll), and
// "scan-ref" is the same scan with every row pushed through the heap
// (refScan, the oracle of select_test.go — the selection TopKAll had
// before ISSUE 16 fused it into the scan; scan-speedup-x is ref/scan).
// handbacks/op is how many times the scan's kernel returned to Go in one
// TopKAll: once at each shard's end and once per page with survivors.
// It is a count, not a time, so it reads the same on any host.
//
//	go test -run=NONE -bench=BenchmarkTopK -benchmem ./internal/core/

func benchView(b *testing.B, nServices int) (*PredictView, []int) {
	b.Helper()
	m := topkTestModel(b, nServices)
	candidates := make([]int, nServices)
	for i := range candidates {
		candidates[i] = i
	}
	return m.BuildView(), candidates
}

// legacyDot is the straight-line dot product the pre-change path used,
// over two entities' lanes.
func legacyDot(a, bb []float32) float64 {
	var s float64
	for i := 0; i < len(a); i += viewGroupRows {
		s += float64(a[i]) * float64(bb[i])
	}
	return s
}

// legacyRank is the pre-change ranking path, verbatim in structure:
// transform every candidate, sort everything, keep k.
func legacyRank(v *PredictView, user int, candidates []int, k int, lowerIsBetter bool, dst []Ranked) []Ranked {
	u, ok := v.users.get(user)
	if !ok {
		return dst[:0]
	}
	ranked := dst[:0]
	for _, c := range candidates {
		s, ok := v.services.get(c)
		if !ok {
			continue
		}
		ranked = append(ranked, Ranked{
			Service: c,
			Value:   v.tr.Backward(transform.Sigmoid(legacyDot(u.lane, s.lane))),
		})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if lowerIsBetter {
			return ranked[i].Value < ranked[j].Value
		}
		return ranked[i].Value > ranked[j].Value
	})
	if k < len(ranked) {
		ranked = ranked[:k]
	}
	return ranked
}

// p50Dur returns the median of a sample of per-iteration durations.
func p50Dur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func BenchmarkTopK(b *testing.B) {
	const k = 10
	for _, n := range []int{1000, 10000, 100000} {
		v, candidates := benchView(b, n)
		name := sizeLabel(n)

		b.Run(name, func(b *testing.B) {
			legacyDst := make([]Ranked, 0, n)
			heapDst := make([]Ranked, 0, k)
			u, _ := v.users.get(0)
			var unknown []int
			heapDst = v.appendTopK(heapDst[:0], u, candidates, k, true, &unknown) // warm pool
			// Warms the pool, and counts the kernel's returns to Go: the
			// same for every iteration, so the timed loop runs without
			// the hook.
			handbacks := 0
			testHookScan = func(int, int, uint64) { handbacks++ }
			v.TopKAll(0, k, true, 1)
			testHookScan = nil
			legacyNs := make([]time.Duration, 0, b.N)
			heapNs := make([]time.Duration, 0, b.N)
			scanNs := make([]time.Duration, 0, b.N)
			refNs := make([]time.Duration, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				legacyDst = legacyRank(v, 0, candidates, k, true, legacyDst)
				t1 := time.Now()
				heapDst = v.appendTopK(heapDst[:0], u, candidates, k, true, &unknown)
				t2 := time.Now()
				v.TopKAll(0, k, true, 1)
				t3 := time.Now()
				refScan(v, 0, k, true)
				t4 := time.Now()
				legacyNs = append(legacyNs, t1.Sub(t0))
				heapNs = append(heapNs, t2.Sub(t1))
				scanNs = append(scanNs, t3.Sub(t2))
				refNs = append(refNs, t4.Sub(t3))
			}
			b.StopTimer()
			legacyP50 := p50Dur(legacyNs)
			heapP50 := p50Dur(heapNs)
			scanP50 := p50Dur(scanNs)
			refP50 := p50Dur(refNs)
			b.ReportMetric(float64(legacyP50.Nanoseconds()), "legacy-p50-ns/op")
			b.ReportMetric(float64(heapP50.Nanoseconds()), "heap-p50-ns/op")
			b.ReportMetric(float64(scanP50.Nanoseconds()), "scan-p50-ns/op")
			b.ReportMetric(float64(handbacks), "handbacks/op")
			b.ReportMetric(float64(refP50.Nanoseconds()), "scan-ref-p50-ns/op")
			if heapP50 > 0 {
				b.ReportMetric(float64(legacyP50)/float64(heapP50), "heap-speedup-x")
			}
			if scanP50 > 0 {
				b.ReportMetric(float64(refP50)/float64(scanP50), "scan-speedup-x")
			}
		})
	}
}

// BenchmarkPredictBatchView measures the batched point-prediction path
// against per-call Predict on the same view, paired in one loop.
func BenchmarkPredictBatchView(b *testing.B) {
	v, services := benchView(b, 10000)
	dst := make([]float64, len(services))
	batchNs := make([]time.Duration, 0, 1024)
	perCallNs := make([]time.Duration, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		_ = v.PredictBatch(0, services, dst)
		t1 := time.Now()
		for _, s := range services {
			dst[0], _ = v.Predict(0, s)
		}
		t2 := time.Now()
		batchNs = append(batchNs, t1.Sub(t0))
		perCallNs = append(perCallNs, t2.Sub(t1))
	}
	b.StopTimer()
	batchP50 := p50Dur(batchNs)
	perCallP50 := p50Dur(perCallNs)
	b.ReportMetric(float64(batchP50.Nanoseconds()), "batch-p50-ns/op")
	b.ReportMetric(float64(perCallP50.Nanoseconds()), "per-call-p50-ns/op")
	if batchP50 > 0 {
		b.ReportMetric(float64(perCallP50)/float64(batchP50), "batch-speedup-x")
	}
}

func sizeLabel(n int) string {
	switch {
	case n >= 1000 && n%1000 == 0:
		return itoaBench(n/1000) + "k"
	default:
		return itoaBench(n)
	}
}

func itoaBench(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
