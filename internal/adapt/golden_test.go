package adapt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/qoslab/amf/internal/matrix"
)

// simulationGolden holds, per dot kernel and seed, the SHA-256 of what
// RunSimulation reports on simDataset: each strategy's name, the float64
// bits of its MeanLatency and ViolationRate, and its Adaptations and
// Invocations, in run order. Every draw of the simulation is seeded, so
// the only way a digest changes is a change to what the loop, a strategy
// or the predicted strategy's model computes. The generated QoS values
// and AMF's training both go through the dot kernel, whose sums associate
// differently per kernel, so the digests are keyed by GOARCH and kernel
// as TestGoldenTraining keys core's; the kernel sets CI runs are
// recorded (on this dataset the two agree). The digests were recorded
// before the simulation became one loop over strategy functions.
var simulationGolden = map[string]map[int64]string{
	"amd64/avx2": {
		5:    "5589162c4dc5be89702879c8103f59ddb1614c9af84d5a5552954f3948fa4787",
		2014: "66b76d57a67b2a4370e803fe3f5967580d64f0262b929ece34186c6d1003132c",
	},
	"amd64/": { // -tags noasm, or a CPU without AVX2
		5:    "5589162c4dc5be89702879c8103f59ddb1614c9af84d5a5552954f3948fa4787",
		2014: "66b76d57a67b2a4370e803fe3f5967580d64f0262b929ece34186c6d1003132c",
	},
}

// simulationKernel names the dot kernel the simulation runs, as
// GOARCH/SIMD; avx512 runs the avx2 dot.
func simulationKernel() string {
	simd := matrix.SIMD()
	if simd == "avx512" {
		simd = "avx2"
	}
	return runtime.GOARCH + "/" + simd
}

// TestSimulationGolden holds RunSimulation's results at two seeds to the
// recorded digests. A GOARCH with no recorded digest skips; a kernel
// missing on a GOARCH that has some fails.
func TestSimulationGolden(t *testing.T) {
	kernel := simulationKernel()
	want, ok := simulationGolden[kernel]
	if !ok {
		for k := range simulationGolden {
			if strings.HasPrefix(k, runtime.GOARCH+"/") {
				t.Fatalf("no digest recorded for %s; %s has digests for other kernels", kernel, runtime.GOARCH)
			}
		}
		t.Skipf("no digest recorded for %s", kernel)
	}
	for _, seed := range []int64{5, 2014} {
		res, err := RunSimulation(simDataset(), seed)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for _, s := range res.Strategies {
			h.Write([]byte(s.Name))
			for _, v := range []uint64{
				math.Float64bits(s.MeanLatency), math.Float64bits(s.ViolationRate),
				uint64(s.Adaptations), uint64(s.Invocations),
			} {
				binary.LittleEndian.PutUint64(b[:], v)
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[seed] {
			t.Errorf("%s: seed %d: results sha256 %s, recorded %s (%+v)", kernel, seed, got, want[seed], res.Strategies)
		}
	}
}
