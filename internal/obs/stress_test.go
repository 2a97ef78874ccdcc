package obs

import (
	"io"
	"sync"
	"testing"
)

// TestConcurrentRecordAndScrape hammers every hot-path primitive from many
// goroutines while scrapers render and quantile-estimate concurrently.
// Run under -race (CI does): the whole point of the package is that
// recording is lock-free and scraping never stops writers.
func TestConcurrentRecordAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("stress_ops_total", "h")
	g := r.NewGauge("stress_inflight", "h")
	h := NewHistogram(1e-9, 60, 8)
	r.RegisterHistogram("stress_latency_seconds", "h", h)
	hv := r.NewHistogramVec("stress_route_seconds", "h", "route", 1e-9, 60, 8)
	cv := r.NewCounterVec("stress_status_total", "h", "code")
	tr := NewAccuracyTracker(0.3)
	tr.Register(r, "stress_accuracy")

	routes := []*Histogram{hv.With("a"), hv.With("b"), hv.With("c")}
	codes := []*Counter{cv.With("2xx"), cv.With("4xx")}

	const writers, scrapers, perWriter = 8, 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			prior, observed := []float64{0}, []float64{10}
			for i := 0; i < perWriter; i++ {
				v := float64(seed*perWriter+i%977+1) * 1e-6
				c.Inc()
				g.Add(1)
				h.Observe(v)
				h.ObserveN(v, 3)
				routes[i%len(routes)].Observe(v)
				codes[i%len(codes)].Inc()
				prior[0] = 10 + v
				tr.RecordAll(prior, observed)
				g.Add(-1)
			}
		}(w)
	}
	scrapeErr := make(chan error, scrapers)
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := r.WritePrometheus(io.Discard); err != nil {
					scrapeErr <- err
					return
				}
				_ = h.Quantile(0.99)
				_ = tr.MRE()
			}
		}()
	}
	wg.Wait()
	close(scrapeErr)
	for err := range scrapeErr {
		t.Fatal(err)
	}
	if got, want := c.Value(), int64(writers*perWriter); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
	if got, want := h.Count(), int64(writers*perWriter*4); got != want {
		t.Fatalf("histogram count = %d, want %d", got, want)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge did not return to zero: %d", g.Value())
	}
	if tr.Samples() != int64(writers*perWriter) {
		t.Fatalf("accuracy samples = %d", tr.Samples())
	}
}
