package obs

import (
	"testing"
	"time"
)

// The package's contract is that a hot-path record costs a few atomic
// adds. These benchmarks put numbers on that (the repository benchmark's
// obs.histogram_observe_ns probe tracks the histogram one); the
// end-to-end <5% predict-path overhead proof lives in
// internal/server's BenchmarkPredictPath.

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(1e-9, 60, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewHistogram(1e-9, 60, 8)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i%1000) * 1e-6)
			i++
		}
	})
}

func BenchmarkHistogramObserveDuration(b *testing.B) {
	h := NewHistogram(1e-9, 60, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveDuration(time.Duration(i%1000) * time.Microsecond)
	}
}

func BenchmarkAccuracyRecord(b *testing.B) {
	tr := NewAccuracyTracker(0.3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(10.5, 10)
	}
}

func BenchmarkQuantile(b *testing.B) {
	h := NewHistogram(1e-9, 60, 8)
	for i := 0; i < 100000; i++ {
		h.Observe(float64(i%997) * 1e-6)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Quantile(0.99)
	}
}
