package obs

import (
	"math"
	"strings"
	"testing"
)

// buildTestRegistry assembles one of every metric kind.
func buildTestRegistry() (*Registry, func()) {
	r := NewRegistry()
	c := r.NewCounter("test_requests_total", "Requests handled.")
	g := r.NewGauge("test_inflight", "Requests currently in flight.")
	r.GaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	r.CounterFunc("test_applied_total", "Applied updates.", func() int64 { return 99 })
	h := NewHistogram(1e-9, 60, 8)
	r.RegisterHistogram("test_latency_seconds", "Request latency.", h)
	hv := r.NewHistogramVec("test_route_latency_seconds", "Per-route latency.", "route", 1e-9, 60, 8)
	cv := r.NewCounterVec("test_status_total", "Responses by status class.", "code")
	traffic := func() {
		c.Add(3)
		g.Set(2)
		h.Observe(0.004)
		h.Observe(0.1)
		hv.With("GET /api/v1/predict").Observe(0.002)
		hv.With(`weird"route\n`).Observe(0.5)
		cv.With("2xx").Add(7)
		cv.With("5xx").Inc()
	}
	return r, traffic
}

func TestRegistryExpositionParsesAndValidates(t *testing.T) {
	r, traffic := buildTestRegistry()
	traffic()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	tm, err := ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
	}
	if err := tm.Validate(); err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, b.String())
	}
	if v, ok := tm.Value("test_requests_total", nil); !ok || v != 3 {
		t.Errorf("test_requests_total = %g, %v", v, ok)
	}
	if v, ok := tm.Value("test_status_total", map[string]string{"code": "2xx"}); !ok || v != 7 {
		t.Errorf("test_status_total{code=2xx} = %g, %v", v, ok)
	}
	if v, ok := tm.Value("test_uptime_seconds", nil); !ok || v != 12.5 {
		t.Errorf("test_uptime_seconds = %g, %v", v, ok)
	}
	// The escaped label round-trips through exposition and parser.
	f := tm.Families["test_route_latency_seconds"]
	found := false
	for _, s := range f.Samples {
		if s.Labels["route"] == "weird\"route\\n" {
			found = true
		}
	}
	if !found {
		t.Errorf("escaped label value did not round-trip:\n%s", b.String())
	}
	// Quantile reconstruction from the scrape.
	q, err := tm.HistogramQuantile("test_route_latency_seconds",
		map[string]string{"route": "GET /api/v1/predict"}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0.001 || q > 0.004 {
		t.Errorf("scraped median %g not near 0.002", q)
	}
}

func TestRegistryEmptyHistogramStillValid(t *testing.T) {
	r := NewRegistry()
	r.RegisterHistogram("test_empty_seconds", "Never observed.", NewHistogram(1e-9, 60, 8))
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `test_empty_seconds_bucket{le="+Inf"} 0`) {
		t.Fatalf("empty histogram missing +Inf bucket:\n%s", out)
	}
	tm, err := ParseMetrics(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryNamingEnforcement(t *testing.T) {
	cases := []func(*Registry){
		func(r *Registry) { r.NewCounter("bad_counter", "h") },                               // counter without _total
		func(r *Registry) { r.NewGauge("bad_gauge_total", "h") },                             // gauge with _total
		func(r *Registry) { r.NewCounter("1bad_total", "h") },                                // invalid name
		func(r *Registry) { r.NewCounter("dup_total", "h"); r.NewCounter("dup_total", "h") }, // duplicate
		func(r *Registry) { r.NewGauge("no_help", "") },                                      // missing help
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn(NewRegistry())
		}()
	}
}

func TestCounterRejectsDecrement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("counter decrement did not panic")
		}
	}()
	(&Counter{}).Add(-1)
}

func TestVecReturnsSameChild(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("test_x_total", "h", "k")
	if cv.With("a") != cv.With("a") {
		t.Fatal("CounterVec.With not stable")
	}
	hv := r.NewHistogramVec("test_y_seconds", "h", "k", 1e-9, 60, 8)
	if hv.With("a") != hv.With("a") {
		t.Fatal("HistogramVec.With not stable")
	}
}

func TestHistogramExpositionCountMatchesInf(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram(1e-9, 60, 8)
	r.RegisterHistogram("test_z_seconds", "h", h)
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i%7) * 0.001)
	}
	h.Observe(math.Inf(1)) // overflow must appear only in +Inf
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	tm, err := ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	if v, _ := tm.Value("test_z_seconds_count", nil); v != 1001 {
		t.Fatalf("_count = %g, want 1001", v)
	}
}
