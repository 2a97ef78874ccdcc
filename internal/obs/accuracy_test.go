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
	prior, observed := make([]float64, len(rels)), make([]float64, len(rels))
	for i := range rels {
		rel := math.Exp(rng.Float64()*6 - 6) // rel err in [e^-6, 1]
		rels[i] = rel
		// observed 10, predicted 10·(1±rel)
		sign := 1.0
		if i%2 == 0 {
			sign = -1
		}
		prior[i], observed[i] = 10*(1+sign*rel), 10
	}
	for i := 0; i < len(rels); i += 64 {
		j := min(i+64, len(rels))
		tr.RecordAll(prior[i:j], observed[i:j])
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
	tr.RecordAll([]float64{15}, []float64{10}) // rel err 0.5: first sample is adopted directly
	if got := tr.EMA(); got != 0.5 {
		t.Fatalf("first EMA = %g, want 0.5", got)
	}
	prior, observed := make([]float64, 200), make([]float64, 200)
	for i := range prior {
		prior[i], observed[i] = 10.1, 10 // rel err 0.01
	}
	tr.RecordAll(prior, observed)
	if got := tr.EMA(); relDiff(got, 0.01) > 0.05 {
		t.Fatalf("EMA did not converge to 0.01: %g", got)
	}
}

func TestAccuracyTrackerSkipsUnscorable(t *testing.T) {
	tr := NewAccuracyTracker(0)
	tr.RecordAll(
		[]float64{1, 1, math.NaN(), math.NaN()},
		// zero and negative ground truth, no prediction, neither
		[]float64{0, -3, 1, 0})
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
	tr.RecordAll([]float64{12, math.NaN()}, []float64{10, 10})
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

// TestRecordAllMatchesPerSample holds RecordAll to the per-sample fold
// it replaced: one histogram Observe, one sample or miss and one EMA step
// per pair, in order. Over random batches — scored pairs, NaN priors,
// non-positive observed values, errors of zero and past the histogram's
// top — the EMA bits, every bucket, the overflow, the count, the samples
// and the misses must be equal, and the histogram sum equal to within
// float rounding.
func TestRecordAllMatchesPerSample(t *testing.T) {
	const beta = 0.3
	got := NewAccuracyTracker(beta)
	want := struct {
		ema             float64
		hist            *Histogram
		samples, misses int64
	}{math.NaN(), NewHistogram(1e-6, 1e4, 16), 0, 0}
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 500; round++ {
		n := rng.Intn(70)
		prior, observed := make([]float64, n), make([]float64, n)
		for i := range prior {
			observed[i] = 0.01 + 20*rng.Float64()
			prior[i] = observed[i] * math.Exp(rng.NormFloat64()*3)
			switch rng.Intn(12) {
			case 0:
				prior[i] = math.NaN()
			case 1:
				observed[i] = -observed[i] * float64(rng.Intn(2))
			case 2:
				prior[i] = observed[i]
			case 3:
				prior[i] = observed[i] * 1e6
			}
		}
		got.RecordAll(prior, observed)
		for i, p := range prior {
			o := observed[i]
			if !(o > 0) || math.IsNaN(p) {
				want.misses++
				continue
			}
			rel := math.Abs(p-o) / o
			want.hist.Observe(rel)
			want.samples++
			if math.IsNaN(want.ema) {
				want.ema = rel
			} else {
				want.ema = beta*rel + (1-beta)*want.ema
			}
		}
	}
	if g, w := got.ema.Load(), math.Float64bits(want.ema); g != w {
		t.Errorf("EMA %v, per-sample fold %v", math.Float64frombits(g), math.Float64frombits(w))
	}
	if got.Samples() != want.samples || got.Misses() != want.misses {
		t.Errorf("samples %d, misses %d; per-sample %d, %d", got.Samples(), got.Misses(), want.samples, want.misses)
	}
	h := got.relErr
	for i := range h.buckets {
		if g, w := h.buckets[i].Load(), want.hist.buckets[i].Load(); g != w {
			t.Errorf("bucket %d holds %d, per-sample %d", i, g, w)
		}
	}
	if h.overflow.Load() != want.hist.overflow.Load() || h.Count() != want.hist.Count() {
		t.Errorf("overflow %d, count %d; per-sample %d, %d", h.overflow.Load(), h.Count(), want.hist.overflow.Load(), want.hist.Count())
	}
	if want.hist.overflow.Load() == 0 || want.misses == 0 {
		t.Fatal("the batches reached neither the overflow bucket nor a miss: the test covers less than it says")
	}
	if relDiff(h.Sum(), want.hist.Sum()) > 1e-12 {
		t.Errorf("sum %v, per-sample %v", h.Sum(), want.hist.Sum())
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
