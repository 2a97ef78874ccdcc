package eval

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/matrix"
	"github.com/qoslab/amf/internal/stream"
)

// baselineGolden holds, per dot kernel and approach, the SHA-256 of every
// (user, service) prediction of a baseline trained by TestBaselinesGolden:
// each cell's float64 bits and ok flag, in row-major order, RT then TP.
// Nothing in a baseline is random but its seed, so the only way a digest
// changes is a change to what the baseline computes. The generated QoS
// values and the MF models' sums both go through the dot kernel, whose
// sums associate differently per kernel, so the digests are keyed by
// GOARCH and kernel as TestGoldenTraining keys core's; the kernel sets CI
// runs are recorded. NIMF's pair was re-recorded when its neighbours'
// gradient step moved to the item vector the estimate used.
var baselineGolden = map[string]map[string]string{
	"amd64/avx2": {
		"UMEAN":    "9a9d57f18f90776209b75c1152ec895248846a7f7be5f14abcf87910ab1bd7fd",
		"IMEAN":    "87d4d44c207cb7437f36ee2c3744fc5056f9e8ebb202281d4f5018d82db11076",
		"UPCC":     "97b1391a2f0c786569f64f4421ec1835c05614c765e3a2a34f9ff7045660a16e",
		"IPCC":     "d186100a186f2fd4b1243ce1908d537c3b7d7eba9b686eb33546e3fdccc54632",
		"UIPCC":    "204cd53035cd25f3c5fe920801bcad98653e96048611dfaeb1a2def3203a9269",
		"PMF":      "fa5ba1d629ad50685ac66ac13c61bbf18d1d047959157670023ac15165e9b0f6",
		"BiasedMF": "53f69cad6a10cf190704f8280bab37ab3f471ec24d6b10827a7795a9e1d6dc9d",
		"NIMF":     "895e23a3479de6af3478696c02dfab4eeaed2562b4ae2cc699b67be26c410173",
	},
	"amd64/": { // -tags noasm, or a CPU without AVX2
		"UMEAN":    "025bd4b03ceb4d81e77bdfa55ba5dcc0b4ed0a06f6b3b628cbd28840868beab8",
		"IMEAN":    "6f5cd0e0efb94deb18d100fc1c63744636b0554dc7f44031132d9255a7cbca36",
		"UPCC":     "97ffc98b48d57436e924e5b458795cc5548f8f3470eea4d32a5a9c46163b38ed",
		"IPCC":     "bca679983b010daabf4f43d43a28f42027cb5d690062c83930aa1ccc1eb4b68b",
		"UIPCC":    "fc80a589c29029388a79fc864a6610a4c43c702f8e9994b3f993be8509e127cd",
		"PMF":      "735e119e6db72a7ad657371697222503490774afcd71fc359030cd270a417e0b",
		"BiasedMF": "e1c7b34c98345f1851e9f93d567665589f5e0aede2482217312ff9a31fb77dcf",
		"NIMF":     "afc4704d97c72fbea20ad3d431ccb17d5ef300f91a929ba05229a3d1cbff7b3e",
	},
}

// baselineKernel names the dot kernel the baselines train on, as
// GOARCH/SIMD; avx512 runs the avx2 dot.
func baselineKernel() string {
	simd := matrix.SIMD()
	if simd == "avx512" {
		simd = "avx2"
	}
	return runtime.GOARCH + "/" + simd
}

// TestBaselinesGolden trains every non-AMF approach of ExtendedApproaches
// on one seeded split of the tiny dataset, for both attributes, and holds
// its predictions over the whole matrix to the recorded digest. A GOARCH
// with no recorded digest skips; a kernel missing on a GOARCH that has
// some fails.
func TestBaselinesGolden(t *testing.T) {
	kernel := baselineKernel()
	want, ok := baselineGolden[kernel]
	if !ok {
		for k := range baselineGolden {
			if strings.HasPrefix(k, runtime.GOARCH+"/") {
				t.Fatalf("no digest recorded for %s; %s has digests for other kernels", kernel, runtime.GOARCH)
			}
		}
		t.Skipf("no digest recorded for %s", kernel)
	}
	g := dataset.MustNew(tinyDataset())
	users, services := g.Config().Users, g.Config().Services
	var ctxs []TrainContext
	for _, attr := range []dataset.Attribute{dataset.ResponseTime, dataset.Throughput} {
		sp, err := stream.SliceSplit(g, attr, 0, 0.3, 7)
		if err != nil {
			t.Fatal(err)
		}
		ctxs = append(ctxs, NewTrainContext(attr, users, services, sp, 7))
	}
	seen := 0
	for _, a := range ExtendedApproaches() {
		if strings.HasPrefix(a.Name, "AMF") {
			continue
		}
		seen++
		h := sha256.New()
		var cell [9]byte
		for _, ctx := range ctxs {
			pred, err := a.Train(ctx)
			if err != nil {
				t.Fatalf("%s: %v", a.Name, err)
			}
			for u := 0; u < users; u++ {
				for s := 0; s < services; s++ {
					v, ok := pred(u, s)
					binary.LittleEndian.PutUint64(cell[:8], math.Float64bits(v))
					cell[8] = 0
					if ok {
						cell[8] = 1
					}
					h.Write(cell[:])
				}
			}
		}
		got := hex.EncodeToString(h.Sum(nil))
		if got != want[a.Name] {
			t.Errorf("%s: %s: predictions sha256 %s, recorded %s", kernel, a.Name, got, want[a.Name])
		}
	}
	if seen != len(want) {
		t.Errorf("%d baselines trained, %d digests recorded", seen, len(want))
	}
}
