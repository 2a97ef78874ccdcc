package engine

import (
	"io"
	"log/slog"
	"testing"

	"github.com/qoslab/amf/internal/store"
	"github.com/qoslab/amf/internal/stream"
)

// BenchmarkObserveJournal measures the durability tax on the synchronous
// observe path: the same 64-sample ObserveAll with no journal attached
// (the seed's write path) versus journaling into a real segmented WAL,
// where every batch pays a real fsync (one closed-loop caller has nobody
// to share it with).
//
//	go test -bench=BenchmarkObserveJournal -benchmem ./internal/engine/
func BenchmarkObserveJournal(b *testing.B) {
	const obsBatch = 64
	batch := make([]stream.Sample, obsBatch)
	for j := range batch {
		batch[j] = stream.Sample{User: j % 128, Service: (j * 3) % 512, Value: 1 + float64(j%9)}
	}
	run := func(b *testing.B, e *Engine) {
		b.Helper()
		b.SetBytes(int64(obsBatch))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ObserveAll(batch)
		}
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	b.Run("journal=none", func(b *testing.B) {
		e := New(testModel(b), Config{})
		run(b, e)
	})
	b.Run("journal=group", func(b *testing.B) {
		w, err := store.OpenWAL(b.TempDir(), store.WALOptions{Logger: quiet})
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		e := New(testModel(b), Config{})
		e.SetJournal(w)
		run(b, e)
	})
}
