package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

// BenchmarkTrainThroughput measures online-update throughput (samples/s)
// through the parallel trainer at increasing worker counts. workers=1 is
// the exact serial baseline (Trainer delegates to Model.ObserveAll), so
// the sub-benchmark ratios are the parallel speedup directly.
//
// The benchmark is designed to expose scaling on multicore hosts: the
// user side is embarrassingly parallel (worker-owned shards), and with
// 512 users × 256 services the service-stripe collision rate is low. On
// a single-core host all widths serialize and the fan-out overhead is
// what's being measured. `make bench-smoke` runs workers=1 and 4.
func BenchmarkTrainThroughput(b *testing.B) {
	const (
		users    = 512
		services = 256
		batch    = 2048
	)
	mkSamples := func() []stream.Sample {
		ss := make([]stream.Sample, batch)
		for i := range ss {
			u := (i * 2654435761) % users
			s := (i * 40503) % services
			ss[i] = stream.Sample{User: u, Service: s, Value: 0.5 + float64((u+s)%9)}
		}
		return ss
	}

	run := func(b *testing.B, workers int) {
		cfg := rtConfig()
		cfg.Expiry = 2 * time.Second // bound replay-pool growth across iterations
		m := MustNew(cfg)
		tr := NewTrainer(m, TrainerConfig{Workers: workers})
		defer tr.Close()
		ss := mkSamples()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t := time.Duration(i) * time.Second
			for j := range ss {
				ss[j].Time = t
			}
			tr.Apply(ss)
		}
		b.StopTimer()
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)*batch/sec, "samples/s")
		}
	}

	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { run(b, w) })
	}

	// Replay throughput: Algorithm 1's inner loop fanned across the
	// worker-partitioned pools.
	b.Run("replay/workers=4", func(b *testing.B) {
		cfg := rtConfig()
		m := MustNew(cfg)
		tr := NewTrainer(m, TrainerConfig{Workers: 4})
		defer tr.Close()
		tr.Apply(mkSamples())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.ReplaySteps(batch)
		}
		b.StopTimer()
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)*batch/sec, "samples/s")
		}
	})
}
