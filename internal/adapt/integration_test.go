package adapt

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/client"
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/server"
	"github.com/qoslab/amf/internal/stream"
)

// TestAdaptationThroughPredictionService drives the complete loop of the
// paper's framework (Fig. 3) across a real HTTP boundary: every
// invocation is uploaded to the prediction service, and when an SLA is
// violated the predicted strategy picks the replacement candidate by
// querying the service — the execution side on one end of the wire, the
// shared prediction service on the other.
func TestAdaptationThroughPredictionService(t *testing.T) {
	ds := dataset.Config{
		Users: 10, Services: 30, Slices: 6,
		Interval: 15 * time.Minute, Rank: 5, Seed: 77,
	}
	gen := dataset.MustNew(ds)

	rmin, rmax := dataset.ResponseTime.Range()
	cfg := core.DefaultConfig(dataset.ResponseTime.DefaultAlpha(), rmin, rmax)
	cfg.Expiry = 0
	svc := server.New(core.MustNew(cfg))
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := client.New(ts.URL, nil)
	ctx := context.Background()

	// The QoS manager side: every observation goes to the service; the
	// fleet's latency is summed per slice on the way.
	sliceLatency := make([]float64, ds.Slices)
	observe := func(s stream.Sample) {
		sliceLatency[int(s.Time/ds.Interval)] += s.Value
		_, err := c.Observe(ctx, []server.Observation{{
			User:    fmt.Sprintf("app-%02d", s.User),
			Service: fmt.Sprintf("ws-%02d", s.Service),
			Value:   s.Value,
		}})
		if err != nil {
			t.Errorf("observe: %v", err)
		}
	}
	predict := func(user, service int) (float64, error) {
		return c.Predict(ctx, fmt.Sprintf("app-%02d", user), fmt.Sprintf("ws-%02d", service))
	}

	sr := play(gen, workflow(ds.Services, 77), 77, predictedPick(predict), observe, nil)

	t.Logf("%d invocations, %d adaptations, fleet latency slice 0 %.2f s, slice %d %.2f s",
		sr.Invocations, sr.Adaptations, sliceLatency[0], ds.Slices-1, sliceLatency[ds.Slices-1])

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Every invocation of every execution must have been uploaded.
	if want := int64(sr.Invocations); want < 120 || stats.Updates < want {
		t.Fatalf("service saw %d updates of %d invocations, want >= 120", stats.Updates, want)
	}
	if sr.Adaptations == 0 {
		t.Fatal("no adaptation actions happened over six slices")
	}
	// The fleet should not get worse as the model learns; allow noise.
	if first, last := sliceLatency[0], sliceLatency[ds.Slices-1]; last > first*1.5 {
		t.Fatalf("fleet latency worsened: slice0=%.2f last=%.2f", first, last)
	}
}
