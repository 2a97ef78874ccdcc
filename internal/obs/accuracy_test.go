package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestAccuracyTrackerKnownErrors(t *testing.T) {
	tr := NewAccuracyTracker(0.3)
	// Feed relative errors drawn log-uniformly so the quantiles are
	// computable in closed form against the sorted draw.
	rng := rand.New(rand.NewSource(3))
	rels := make([]float64, 50000)
	for i := range rels {
		rel := math.Exp(rng.Float64()*6 - 6) // rel err in [e^-6, 1]
		rels[i] = rel
		// observed 10, predicted 10·(1±rel)
		sign := 1.0
		if i%2 == 0 {
			sign = -1
		}
		tr.Record(10*(1+sign*rel), 10)
	}
	if tr.Samples() != int64(len(rels)) {
		t.Fatalf("samples = %d, want %d", tr.Samples(), len(rels))
	}
	sort.Float64s(rels)
	for _, c := range []struct {
		q    float64
		got  float64
		name string
	}{
		{0.5, tr.MRE(), "MRE"},
		{0.9, tr.NPRE(), "NPRE"},
	} {
		want := rels[int(c.q*float64(len(rels)-1))]
		if relDiff(c.got, want) > 0.10 {
			t.Errorf("%s = %g, want ≈ %g", c.name, c.got, want)
		}
	}
	if ema := tr.EMA(); ema <= 0 || ema > 1 {
		t.Errorf("EMA = %g out of expected range", ema)
	}
}

func TestAccuracyTrackerEMAConverges(t *testing.T) {
	tr := NewAccuracyTracker(0.3)
	tr.Record(15, 10) // rel err 0.5: first sample is adopted directly
	if got := tr.EMA(); got != 0.5 {
		t.Fatalf("first EMA = %g, want 0.5", got)
	}
	for i := 0; i < 200; i++ {
		tr.Record(10.1, 10) // rel err 0.01
	}
	if got := tr.EMA(); relDiff(got, 0.01) > 0.05 {
		t.Fatalf("EMA did not converge to 0.01: %g", got)
	}
}

func TestAccuracyTrackerSkipsUnscorable(t *testing.T) {
	tr := NewAccuracyTracker(0)
	tr.Record(1, 0)          // non-positive ground truth
	tr.Record(1, -3)         // negative ground truth
	tr.Record(math.NaN(), 1) // no usable prediction
	tr.RecordMiss()          // explicitly unscored
	if tr.Samples() != 0 {
		t.Fatalf("unscorable pairs were scored: %d", tr.Samples())
	}
	if tr.Misses() != 4 {
		t.Fatalf("misses = %d, want 4", tr.Misses())
	}
	if tr.EMA() != 0 || tr.MRE() != 0 {
		t.Fatalf("empty tracker should report zeros: ema=%g mre=%g", tr.EMA(), tr.MRE())
	}
}

func TestAccuracyTrackerRegister(t *testing.T) {
	r := NewRegistry()
	tr := NewAccuracyTracker(0)
	tr.Register(r, "amf_accuracy")
	tr.Record(12, 10)
	tr.RecordMiss()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	tm, err := ParseMetrics(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	if err := tm.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	for name, want := range map[string]float64{
		"amf_accuracy_samples_total":  1,
		"amf_accuracy_unscored_total": 1,
	} {
		if v, ok := tm.Value(name, nil); !ok || v != want {
			t.Errorf("%s = %g (ok=%v), want %g", name, v, ok, want)
		}
	}
	if v, ok := tm.Value("amf_accuracy_ema_relative_error", nil); !ok || relDiff(v, 0.2) > 1e-9 {
		t.Errorf("ema gauge = %g (ok=%v), want 0.2", v, ok)
	}
	if _, ok := tm.Families["amf_accuracy_relative_error"]; !ok {
		t.Error("relative-error histogram not exposed")
	}
}

func TestAccuracyTrackerBadBeta(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("beta > 1 did not panic")
		}
	}()
	NewAccuracyTracker(1.5)
}
