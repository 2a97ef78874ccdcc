package dataset

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"github.com/qoslab/amf/internal/matrix"
	"github.com/qoslab/amf/internal/stats"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := map[string]func(*Config){
		"users":    func(c *Config) { c.Users = 0 },
		"services": func(c *Config) { c.Services = -1 },
		"slices":   func(c *Config) { c.Slices = 0 },
		"rank":     func(c *Config) { c.Rank = 0 },
		"interval": func(c *Config) { c.Interval = 0 },
	}
	for name, breakIt := range cases {
		c := DefaultConfig()
		breakIt(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
		if _, err := New(c); err == nil {
			t.Errorf("%s: New should refuse invalid config", name)
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.Users != 142 || c.Services != 4500 || c.Slices != 64 || c.Interval != 15*time.Minute {
		t.Fatalf("default config %+v does not match paper Fig. 6", c)
	}
}

func TestValueDeterministic(t *testing.T) {
	g1 := MustNew(SmallConfig())
	g2 := MustNew(SmallConfig())
	for _, attr := range []Attribute{ResponseTime, Throughput} {
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				if v1, v2 := g1.Value(attr, i, j, 3), g2.Value(attr, i, j, 3); v1 != v2 {
					t.Fatalf("%v (%d,%d): %g != %g across identically-seeded generators", attr, i, j, v1, v2)
				}
			}
		}
	}
}

func TestValueSeedSensitivity(t *testing.T) {
	cfg := SmallConfig()
	g1 := MustNew(cfg)
	cfg.Seed++
	g2 := MustNew(cfg)
	same := 0
	for i := 0; i < 10; i++ {
		if g1.Value(ResponseTime, i, 0, 0) == g2.Value(ResponseTime, i, 0, 0) {
			same++
		}
	}
	if same == 10 {
		t.Fatal("different seeds must produce different datasets")
	}
}

func TestValueInRange(t *testing.T) {
	g := MustNew(SmallConfig())
	for _, attr := range []Attribute{ResponseTime, Throughput} {
		_, max := attr.Range()
		for i := 0; i < g.Config().Users; i++ {
			for j := 0; j < 20; j++ {
				for s := 0; s < g.Config().Slices; s++ {
					v := g.Value(attr, i, j, s)
					if v <= 0 || v > max || math.IsNaN(v) {
						t.Fatalf("%v value %g out of (0, %g]", attr, v, max)
					}
				}
			}
		}
	}
}

func TestValuePanicsOutOfRangeIndex(t *testing.T) {
	g := MustNew(SmallConfig())
	for name, f := range map[string]func(){
		"user":    func() { g.Value(ResponseTime, g.Config().Users, 0, 0) },
		"service": func() { g.Value(ResponseTime, 0, -1, 0) },
		"slice":   func() { g.Value(ResponseTime, 0, 0, g.Config().Slices) },
		"attr":    func() { g.Value(Attribute(99), 0, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// The marginal distribution must be highly right-skewed with the paper's
// approximate mean: RT mean ≈ 1.33 s, clearly above the median (Fig. 6-7).
func TestRTMarginalShape(t *testing.T) {
	g := MustNew(Config{Users: 60, Services: 300, Slices: 4, Interval: time.Minute, Rank: 8, Seed: 2014})
	var vals []float64
	for i := 0; i < 60; i++ {
		for j := 0; j < 300; j++ {
			vals = append(vals, g.Value(ResponseTime, i, j, 0))
		}
	}
	sum := stats.Summarize(vals)
	if sum.Mean < 0.8 || sum.Mean > 2.2 {
		t.Errorf("RT mean = %.3f, want ≈ 1.33 (within [0.8, 2.2])", sum.Mean)
	}
	if sum.Median >= sum.Mean {
		t.Errorf("RT should be right-skewed: median %.3f >= mean %.3f", sum.Median, sum.Mean)
	}
	if sk := stats.Skewness(vals); sk < 1 {
		t.Errorf("RT skewness = %.2f, want strongly positive (paper Fig. 7)", sk)
	}
	if sum.Max > 20 {
		t.Errorf("RT max = %.3f exceeds paper range 20", sum.Max)
	}
}

func TestTPMarginalShape(t *testing.T) {
	g := MustNew(Config{Users: 60, Services: 300, Slices: 4, Interval: time.Minute, Rank: 8, Seed: 2014})
	var vals []float64
	for i := 0; i < 60; i++ {
		for j := 0; j < 300; j++ {
			vals = append(vals, g.Value(Throughput, i, j, 0))
		}
	}
	sum := stats.Summarize(vals)
	if sum.Mean < 5 || sum.Mean > 25 {
		t.Errorf("TP mean = %.3f, want ≈ 11.35 (within [5, 25])", sum.Mean)
	}
	if sk := stats.Skewness(vals); sk < 2 {
		t.Errorf("TP skewness = %.2f, want very heavy right tail", sk)
	}
	if sum.Max > 7000 {
		t.Errorf("TP max = %.3f exceeds paper range 7000", sum.Max)
	}
}

// Per-pair time series must fluctuate around a stable level (Fig. 2a):
// the per-pair mean over time should explain most cross-pair variance.
func TestTemporalStability(t *testing.T) {
	g := MustNew(SmallConfig())
	cfg := g.Config()
	var withinVar, betweenVar []float64
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			series := make([]float64, cfg.Slices)
			for s := range series {
				series[s] = math.Log(g.Value(ResponseTime, i, j, s))
			}
			withinVar = append(withinVar, stats.Variance(series))
			betweenVar = append(betweenVar, stats.Mean(series))
		}
	}
	within := stats.Mean(withinVar)
	between := stats.Variance(betweenVar)
	if between <= within {
		t.Errorf("pair identity should dominate temporal noise: between=%.3f within=%.3f", between, within)
	}
}

// Users of the same service must see widely different QoS (Fig. 2b).
func TestUserSpecificity(t *testing.T) {
	g := MustNew(SmallConfig())
	perUser := make([]float64, g.Config().Users)
	for i := range perUser {
		perUser[i] = g.Value(ResponseTime, i, 0, 0)
	}
	sum := stats.Summarize(perUser)
	if sum.Max/sum.Min < 3 {
		t.Errorf("user-perceived RT spread %.2fx too small; want >3x variation across users", sum.Max/sum.Min)
	}
}

// The QoS matrix must be approximately low-rank after log transform
// (Fig. 9): normalized singular values decay fast.
func TestApproximateLowRank(t *testing.T) {
	g := MustNew(Config{Users: 40, Services: 200, Slices: 2, Interval: time.Minute, Rank: 6, Seed: 5})
	// As in the paper, the SVD is taken on the raw QoS matrix.
	m := g.SliceMatrix(ResponseTime, 0)
	sv, err := matrix.SingularValues(m)
	if err != nil {
		t.Fatal(err)
	}
	norm := matrix.NormalizeDescending(sv)
	// After the first few, singular values should be near zero relative
	// to the leading one (paper: "most of them are close to 0").
	if norm[15] > 0.1 {
		t.Errorf("normalized sv[15] = %.3f, want < 0.1 (approx low rank)", norm[15])
	}
	// Only a handful of strong components should remain at the 0.2 level.
	if rank := matrix.EffectiveRank(sv, 0.2); rank > 8 {
		t.Errorf("effective rank %d too high for a rank-6 ground truth", rank)
	}
}

func TestPairMeanConsistency(t *testing.T) {
	g := MustNew(SmallConfig())
	cfg := g.Config()
	// Empirical mean over slices should approach PairMean.
	for _, pair := range [][2]int{{0, 0}, {3, 7}, {9, 50}} {
		i, j := pair[0], pair[1]
		var sum float64
		for s := 0; s < cfg.Slices; s++ {
			sum += g.Value(ResponseTime, i, j, s)
		}
		emp := sum / float64(cfg.Slices)
		want := g.PairMean(ResponseTime, i, j)
		// Noisy small-sample estimate: allow a generous factor.
		if emp < want/4 || emp > want*4 {
			t.Errorf("pair (%d,%d): empirical mean %.3f vs model mean %.3f", i, j, emp, want)
		}
	}
}

func TestSliceMatrixMatchesValue(t *testing.T) {
	g := MustNew(SmallConfig())
	m := g.SliceMatrix(Throughput, 1)
	if m.Rows() != g.Config().Users || m.Cols() != g.Config().Services {
		t.Fatalf("slice matrix shape %dx%d", m.Rows(), m.Cols())
	}
	for _, pair := range [][2]int{{0, 0}, {5, 17}, {29, 119}} {
		if got, want := m.At(pair[0], pair[1]), g.Value(Throughput, pair[0], pair[1], 1); got != want {
			t.Fatalf("slice matrix (%d,%d) = %g, want %g", pair[0], pair[1], got, want)
		}
	}
}

func TestSliceTime(t *testing.T) {
	g := MustNew(DefaultConfig())
	if got := g.SliceTime(4); got != time.Hour {
		t.Fatalf("slice 4 at 15-minute interval = %v, want 1h", got)
	}
}

func TestAttributeHelpers(t *testing.T) {
	if ResponseTime.String() != "RT" || Throughput.String() != "TP" {
		t.Fatal("attribute names")
	}
	if Attribute(9).String() == "" {
		t.Fatal("unknown attribute should still render")
	}
	if !ResponseTime.Valid() || Attribute(0).Valid() {
		t.Fatal("validity")
	}
	if lo, hi := ResponseTime.Range(); lo != 0 || hi != 20 {
		t.Fatal("RT range")
	}
	if lo, hi := Throughput.Range(); lo != 0 || hi != 7000 {
		t.Fatal("TP range")
	}
	if ResponseTime.DefaultAlpha() != -0.007 || Throughput.DefaultAlpha() != -0.05 {
		t.Fatal("paper alphas")
	}
}

func TestAttributeRangePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Attribute(0).Range()
}

// Property: hash-derived uniforms are in (0,1) and normals are finite.
func TestHashRandomnessProperty(t *testing.T) {
	f := func(x uint64) bool {
		u := hashUniform(splitmix64(x))
		n := hashNormal(splitmix64(x ^ 0xabcdef))
		return u > 0 && u < 1 && !math.IsNaN(n) && !math.IsInf(n, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHashNormalMoments(t *testing.T) {
	n := 20000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = hashNormal(mix(123, uint64(i)))
	}
	if m := stats.Mean(vals); math.Abs(m) > 0.03 {
		t.Errorf("hashNormal mean = %g, want ≈ 0", m)
	}
	if sd := stats.StdDev(vals); math.Abs(sd-1) > 0.03 {
		t.Errorf("hashNormal stddev = %g, want ≈ 1", sd)
	}
}
