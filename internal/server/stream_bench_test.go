//go:build unix

package server

import (
	"fmt"
	"io"
	"log/slog"
	"syscall"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/ingest"
)

// BenchmarkIngestTCP times the TCP stream door end to end over real
// loopback: one connection sends 64-line batches, each followed by a PING
// whose PONG it waits for, and the timer stops only once the engine has
// applied every sample sent — so a door that acks before it applies is
// charged for the work it left behind. It reports samples/s and the
// process's CPU time (client, listener and engine together) per sample.
//
//	go test -run=NONE -bench=BenchmarkIngestTCP -benchtime=2000x ./internal/server/
func BenchmarkIngestTCP(b *testing.B) {
	const batch, users, services = 64, 64, 1024
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	s := New(core.MustNew(cfg), WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	defer s.Close()
	w, err := ingest.Dial(serveStream(b, s), time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	userNames, serviceNames := make([]string, users), make([]string, services)
	for i := range userNames {
		userNames[i] = fmt.Sprintf("app-%d", i)
	}
	for i := range serviceNames {
		serviceNames[i] = fmt.Sprintf("ws-%d", i)
	}
	eng := s.Engine()
	applied0 := eng.Stats().Applied
	b.ResetTimer()
	start, cpu0 := time.Now(), cpuTime(b)
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			k := i*batch + j
			if err := w.Send(userNames[k%users], serviceNames[(k*7)%services], 0.25+float64(k%9)/3, 0); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Ping(5 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
	want := applied0 + int64(b.N*batch)
	for giveUp := time.Now().Add(30 * time.Second); eng.Stats().Applied < want; time.Sleep(20 * time.Microsecond) {
		if time.Now().After(giveUp) {
			b.Fatalf("applied %d of %d samples", eng.Stats().Applied-applied0, b.N*batch)
		}
	}
	elapsed, cpu := time.Since(start), cpuTime(b)-cpu0
	b.StopTimer()
	samples := float64(b.N * batch)
	b.ReportMetric(samples/elapsed.Seconds(), "samples/s")
	b.ReportMetric(float64(cpu.Microseconds())/samples, "cpu-us/sample")
}

// cpuTime is the CPU time, user and system, this process has used.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
