package engine

import (
	"sync/atomic"
	"testing"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/stream"
)

// BenchmarkEnginePredictUnderWrites measures parallel prediction
// throughput while a background writer continuously folds in
// observations — the serving workload of the paper's Sec. III framework:
// predictions are served wait-free from the published view while a
// writer commits observe batches.
//
//	go test -bench=BenchmarkEnginePredictUnderWrites -benchmem ./internal/engine/
func BenchmarkEnginePredictUnderWrites(b *testing.B) {
	const (
		users    = 128
		services = 512
		// benchClients multiplies GOMAXPROCS into concurrent reader
		// goroutines, modeling many simultaneous adaptation clients even
		// on small CI machines.
		benchClients = 16
		// replayBatch matches the seed server's RunReplay batch size:
		// the background convergence work every serving deployment runs.
		replayBatch = 500
		// obsBatch is the size of one uploaded observation batch.
		obsBatch = 64
	)
	var seed []stream.Sample
	for u := 0; u < users; u++ {
		for s := 0; s < services; s++ {
			if (u+s)%5 == 0 {
				seed = append(seed, stream.Sample{User: u, Service: s, Value: 1 + float64((u*s)%9)})
			}
		}
	}
	// The HTTP observe API is batch-oriented (clients upload what they
	// measured); model the stream as arriving batches.
	batch := func(i int) []stream.Sample {
		out := make([]stream.Sample, 0, obsBatch)
		for j := 0; j < obsBatch; j++ {
			k := i*obsBatch + j
			out = append(out, stream.Sample{User: k % users, Service: (k * 3) % services, Value: 1 + float64(k%9)})
		}
		return out
	}

	e := New(testModel(b), Config{})
	e.ObserveAll(seed)
	stop := make(chan struct{})
	go func() { // the online-update stream + background replay (RunReplay)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			e.ObserveAll(batch(i)) // readers never block on the apply
			if i%8 == 0 {
				e.ReplaySteps(replayBatch)
			}
		}
	}()
	b.Cleanup(func() { close(stop) })
	b.SetParallelism(benchClients)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := e.View().Predict(i%users, (i*7)%services); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEnginePublish measures the incremental republish cost at
// steady state: K updates applied, then one RefreshView — the per-quantum
// overhead the RCU design pays for wait-free reads.
func BenchmarkEnginePublish(b *testing.B) {
	const k = 256
	m := testModel(b)
	for u := 0; u < 512; u++ {
		for s := 0; s < 512; s++ {
			if (u+s)%7 == 0 {
				m.Observe(stream.Sample{User: u, Service: s, Value: 1 + float64((u+s)%9)})
			}
		}
	}
	v := m.BuildView()
	var sink atomic.Pointer[core.PredictView]
	b.ResetTimer()
	i := 0
	for n := 0; n < b.N; n++ {
		for j := 0; j < k; j++ {
			i++
			m.Observe(stream.Sample{User: i % 512, Service: (i * 3) % 512, Value: 1 + float64(i%9)})
		}
		v = m.RefreshView(v)
		sink.Store(v)
	}
}
