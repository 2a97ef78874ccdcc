package core

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/matrix"
	"github.com/qoslab/amf/internal/stream"
)

// The digests were recorded at the commit before the model, the replay
// pool and the view index moved from Go maps to idtab tables, by running
// this very script there. Nothing in it departs, so the only way they can
// change is a change to what the model learns: the order samples land in
// the pool (Pick indexes it), the pool's eviction order, the SGD
// arithmetic, or what a view freezes. Sums associate differently per dot
// kernel and math.Exp/Pow are per-architecture, so a digest is keyed by
// GOARCH and the dot kernel training runs (goldenKernel); the kernel sets
// CI runs are recorded.
var golden = map[string]struct{ model, view string }{
	"amd64/avx2": {
		"da1dac9d332986f5d9b70d903bc7e0f3c0823708acc832311277e09cdeae2c87",
		"9c48935522c9c1e6c395bab4a07d7993ddefc37b988d4068897fe6aeb34e1a69",
	},
	"amd64/": { // -tags noasm, or a CPU without AVX2
		"45b79faac87be7749ab3c1b8197e631fbbe4dab9bdb02b4f42f6a8ac26980928",
		"0ca679b4a34c09b8858c40c0a7da4cf65ec3ca0add310218c173bd86170c0c31",
	},
}

// goldenKernel names the dot kernel training runs, as GOARCH/SIMD. The
// avx512 set differs from avx2 in the page walk alone, which training
// never runs and a view snapshot does not hold, so it trains as avx2.
func goldenKernel() string {
	simd := matrix.SIMD()
	if simd == "avx512" {
		simd = "avx2"
	}
	return runtime.GOARCH + "/" + simd
}

// TestGoldenTraining runs a fixed script of observes, replay steps,
// expiry (lazy on pick and eager through Fit's compaction) and view
// refreshes, and holds the resulting Model.Snapshot and
// PredictView.Snapshot to the bytes the map-backed implementation
// produced. A GOARCH with no recorded digest skips; a kernel missing on
// a GOARCH that has some fails, so a new dispatch cannot drop the check
// unnoticed.
func TestGoldenTraining(t *testing.T) {
	kernel := goldenKernel()
	want, ok := golden[kernel]
	if !ok {
		for k := range golden {
			if strings.HasPrefix(k, runtime.GOARCH+"/") {
				t.Fatalf("no digest recorded for %s; %s has digests for other kernels", kernel, runtime.GOARCH)
			}
		}
		t.Skipf("no digest recorded for %s", kernel)
	}
	const users, services = 300, 2000
	m := MustNew(rtConfig())
	rng := rand.New(rand.NewSource(42))
	view := m.BuildView()
	now := time.Duration(0)
	for batch := 0; batch < 600; batch++ {
		// One user per batch, as the served observe is; a skewed user
		// draw so pairs repeat and overwrite their pool slot.
		u := int(float64(users) * rng.Float64() * rng.Float64())
		for i := 0; i < 64; i++ {
			now += time.Duration(rng.Intn(40)) * time.Millisecond
			m.Observe(stream.Sample{
				// Some arrivals are older than what the pool holds.
				Time:    now - time.Duration(rng.Intn(3))*time.Second,
				User:    u,
				Service: rng.Intn(services),
				Value:   0.05 + 19*rng.Float64()*rng.Float64(),
			})
		}
		for i := 0; i < 25; i++ {
			m.ReplaySteps(1)
		}
		view = m.RefreshView(view)
		switch batch {
		case 200, 400:
			// Jump the clock so everything older than the jump expires;
			// the replay steps that follow evict lazily.
			now += m.cfg.Expiry - 5*time.Second
			m.AdvanceTo(now)
		case 300, 500:
			// Eager compaction plus an epoch over what is left.
			m.Fit(FitOptions{MaxEpochs: 1, MinEpochs: 1})
		}
	}
	blob, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	vblob, err := m.RefreshView(view).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
	t.Logf("updates %d, users %d, services %d, pool %d", m.Updates(), m.NumUsers(), m.NumServices(), m.pool.Len())
	if got := sum(blob); got != want.model {
		t.Errorf("%s: model snapshot sha256 %s, recorded %s", kernel, got, want.model)
	}
	if got := sum(vblob); got != want.view {
		t.Errorf("%s: view snapshot sha256 %s, recorded %s", kernel, got, want.view)
	}
}
