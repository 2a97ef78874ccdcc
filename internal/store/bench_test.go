package store

import (
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

// Benchmarks for the durable-state layer: the WAL append + WaitDurable
// cost is the per-observe durability tax, the replay and recovery rows
// are the restart-time budget (the paper's online setting has no offline
// retraining window, so recovery time is serving downtime). The
// repository benchmark tracks the same costs as store.append_p50_us,
// store.recovery_s and store.checkpoint_s.

func benchSamples(n int) []stream.Sample {
	ss := make([]stream.Sample, n)
	for i := range ss {
		ss[i] = stream.Sample{
			Time:    time.Duration(i) * time.Millisecond,
			User:    i % 140,
			Service: i % 4500,
			Value:   0.5 + float64(i%40)/10,
		}
	}
	return ss
}

func quietLog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// BenchmarkWALAppend measures one batched observe journal append (16
// samples per record, the common HTTP batch shape) plus the caller's
// WaitDurable — the durable-ack cost of one lone writer. Each op is a
// real fsync — expect disk, not CPU.
func BenchmarkWALAppend(b *testing.B) {
	w := openBenchWAL(b)
	batch := benchSamples(16)
	b.SetBytes(int64(len(encodeSamples(nil, batch))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq, err := w.AppendSamples(batch)
		if err == nil {
			err = w.WaitDurable(seq)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func openBenchWAL(b *testing.B) *WAL {
	b.Helper()
	w, err := OpenWAL(b.TempDir(), WALOptions{Logger: quietLog()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { w.Close() })
	return w
}

func medianNs(ds []time.Duration) float64 {
	cp := append([]time.Duration(nil), ds...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return float64(cp[len(cp)/2])
}

// BenchmarkWALGroupCommit measures the durable-ack cost per append when P
// concurrent writers contend for the log, pairing three arms inside one
// iteration so they see identical filesystem state:
//
//   - group: P writers, each AppendSamples + WaitDurable — concurrent
//     waiters share the fsync whichever of them runs it.
//   - serial: the same P·4 append + WaitDurable pairs from one writer —
//     one fsync per record, nobody to share it with.
//   - nowait: P writers, AppendSamples alone — no fsync on the append
//     path at all, the floor group commit chases.
//
// Writers each issue a few back-to-back appends so the commit sees
// sustained concurrency rather than a single synchronized burst. The
// group-speedup-x extra is the acceptance metric: durable acks per second
// from P concurrent writers vs one writer doing the same appends.
func BenchmarkWALGroupCommit(b *testing.B) {
	const opsPerWriter = 4
	batch := benchSamples(16)
	for _, p := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			wGroup := openBenchWAL(b)
			wSerial := openBenchWAL(b)
			wNoWait := openBenchWAL(b)
			arm := func(w *WAL, writers, ops int, wait bool) time.Duration {
				var wg sync.WaitGroup
				start := time.Now()
				for g := 0; g < writers; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for k := 0; k < ops; k++ {
							seq, err := w.AppendSamples(batch)
							if err == nil && wait {
								err = w.WaitDurable(seq)
							}
							if err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				return time.Since(start)
			}
			gl := make([]time.Duration, b.N)
			sl := make([]time.Duration, b.N)
			nl := make([]time.Duration, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gl[i] = arm(wGroup, p, opsPerWriter, true)
				sl[i] = arm(wSerial, 1, p*opsPerWriter, true)
				nl[i] = arm(wNoWait, p, opsPerWriter, false)
			}
			b.StopTimer()
			ops := float64(p * opsPerWriter)
			g50, s50, n50 := medianNs(gl), medianNs(sl), medianNs(nl)
			b.ReportMetric(g50/ops, "group-p50-ns/append")
			b.ReportMetric(s50/ops, "serial-p50-ns/append")
			b.ReportMetric(n50/ops, "nowait-p50-ns/append")
			b.ReportMetric(s50/g50, "group-speedup-x")
		})
	}
}

// BenchmarkWALReplay measures decoding + callback dispatch over a
// prebuilt log: the per-record half of crash-recovery cost.
func BenchmarkWALReplay(b *testing.B) {
	for _, records := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("records=%d", records), func(b *testing.B) {
			dir := b.TempDir()
			w, err := OpenWAL(dir, WALOptions{Logger: quietLog()})
			if err != nil {
				b.Fatal(err)
			}
			batch := benchSamples(16)
			for i := 0; i < records; i++ {
				if _, err := w.AppendSamples(batch); err != nil {
					b.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := OpenWAL(dir, WALOptions{Logger: quietLog()})
				if err != nil {
					b.Fatal(err)
				}
				var n int
				if err := r.Replay(0, func(e Entry) error { n += len(e.Samples); return nil }); err != nil {
					b.Fatal(err)
				}
				if n != records*len(batch) {
					b.Fatalf("replayed %d samples, want %d", n, records*len(batch))
				}
				r.Close()
			}
		})
	}
}

// BenchmarkCheckpoint measures one full checkpoint cycle on a manager
// (capture + atomic temp→fsync→rename + retention prune + WAL rotate +
// truncate) for a fixed-size state blob.
func BenchmarkCheckpoint(b *testing.B) {
	for _, kb := range []int{64, 1024} {
		b.Run(fmt.Sprintf("state=%dKiB", kb), func(b *testing.B) {
			m, err := Open(b.TempDir(), Options{CheckpointInterval: time.Hour, Logger: quietLog()})
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			if _, err := m.Recover(func([]byte) error { return nil }, func(Entry) error { return nil }); err != nil {
				b.Fatal(err)
			}
			blob := make([]byte, kb<<10)
			m.SetCaptureForTest(func() (uint64, []byte, error) { return m.WAL().LastSeq(), blob, nil })
			batch := benchSamples(16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.WAL().AppendSamples(batch); err != nil {
					b.Fatal(err)
				}
				if err := m.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecovery measures the manager's full restart path — open the
// directory, restore the newest checkpoint, replay the WAL tail — over a
// log that carries the given number of 16-sample records past the
// checkpoint. This is the downtime a crash costs.
func BenchmarkRecovery(b *testing.B) {
	for _, records := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("tail=%d", records), func(b *testing.B) {
			dir := b.TempDir()
			m, err := Open(dir, Options{CheckpointInterval: time.Hour, Logger: quietLog()})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Recover(func([]byte) error { return nil }, func(Entry) error { return nil }); err != nil {
				b.Fatal(err)
			}
			blob := make([]byte, 256<<10)
			m.SetCaptureForTest(func() (uint64, []byte, error) { return m.WAL().LastSeq(), blob, nil })
			batch := benchSamples(16)
			if _, err := m.WAL().AppendSamples(batch); err != nil {
				b.Fatal(err)
			}
			if err := m.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < records; i++ {
				if _, err := m.WAL().AppendSamples(batch); err != nil {
					b.Fatal(err)
				}
			}
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
			want := records * len(batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := Open(dir, Options{CheckpointInterval: time.Hour, Logger: quietLog()})
				if err != nil {
					b.Fatal(err)
				}
				var samples int
				rs, err := r.Recover(func([]byte) error { return nil }, func(e Entry) error {
					samples += len(e.Samples)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				if !rs.HaveCheckpoint || samples != want {
					b.Fatalf("recovery: checkpoint=%v samples=%d want=%d", rs.HaveCheckpoint, samples, want)
				}
				r.Close()
			}
		})
	}
}
