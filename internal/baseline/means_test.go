package baseline

import (
	"testing"

	"github.com/qoslab/amf/internal/matrix"
)

func meansMatrix(t *testing.T) *matrix.Sparse {
	t.Helper()
	m := matrix.NewSparse(3, 3)
	m.Append(0, 0, 2)
	m.Append(0, 1, 4)
	m.Append(1, 0, 6)
	m.Freeze()
	return m
}

func TestUMEANPredict(t *testing.T) {
	u := TrainUMEAN(meansMatrix(t))
	if got, ok := u(0, 2); !ok || got != 3 {
		t.Fatalf("user 0 mean = %g, %v; want 3", got, ok)
	}
	if got, ok := u(1, 2); !ok || got != 6 {
		t.Fatalf("user 1 mean = %g, %v; want 6", got, ok)
	}
	// User 2 has no observations: global mean of user means = 4.5.
	if got, ok := u(2, 0); !ok || got != 4.5 {
		t.Fatalf("global fallback = %g, %v; want 4.5", got, ok)
	}
	if _, ok := u(-1, 0); ok {
		t.Fatal("out-of-range user")
	}
	if _, ok := u(0, 5); ok {
		t.Fatal("out-of-range service")
	}
}

func TestIMEANPredict(t *testing.T) {
	p := TrainIMEAN(meansMatrix(t))
	if got, ok := p(2, 0); !ok || got != 4 {
		t.Fatalf("service 0 mean = %g, %v; want 4", got, ok)
	}
	if got, ok := p(2, 1); !ok || got != 4 {
		t.Fatalf("service 1 mean = %g, %v; want 4", got, ok)
	}
	// Service 2 unobserved: global mean of service means = 4.
	if got, ok := p(0, 2); !ok || got != 4 {
		t.Fatalf("global fallback = %g, %v; want 4", got, ok)
	}
	if _, ok := p(5, 0); ok {
		t.Fatal("out-of-range user")
	}
}

func TestMeansEmptyMatrix(t *testing.T) {
	m := matrix.NewSparse(2, 2)
	m.Freeze()
	if _, ok := TrainUMEAN(m)(0, 0); ok {
		t.Fatal("empty UMEAN should not predict")
	}
	if _, ok := TrainIMEAN(m)(0, 0); ok {
		t.Fatal("empty IMEAN should not predict")
	}
}

// CF approaches must beat the mean baselines on structured data — the
// sanity-floor property.
func TestCFBeatsMeansOnStructuredData(t *testing.T) {
	hold := map[[2]int]bool{{2, 3}: true, {5, 1}: true, {7, 4}: true}
	m, truth := structuredMatrix(10, 8, hold)
	umean := TrainUMEAN(m)
	upcc := TrainUPCC(m)
	var umeanErr, upccErr float64
	for cell := range hold {
		want := truth(cell[0], cell[1])
		if v, ok := umean(cell[0], cell[1]); ok {
			umeanErr += abs(v-want) / want
		}
		if v, ok := upcc(cell[0], cell[1]); ok {
			upccErr += abs(v-want) / want
		}
	}
	if upccErr >= umeanErr {
		t.Fatalf("UPCC (%.3f) should beat UMEAN (%.3f) on structured data", upccErr, umeanErr)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
