package stream

import (
	"math"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/dataset"
)

func testGen(t *testing.T) *dataset.Generator {
	t.Helper()
	return dataset.MustNew(dataset.SmallConfig())
}

func TestSliceSplitPartition(t *testing.T) {
	g := testGen(t)
	cfg := g.Config()
	sp, err := SliceSplit(g, dataset.ResponseTime, 0, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := cfg.Users * cfg.Services
	if len(sp.Train)+len(sp.Test) != total {
		t.Fatalf("train+test = %d, want %d", len(sp.Train)+len(sp.Test), total)
	}
	// No overlap: every (user, service) appears exactly once.
	seen := make(map[[2]int]bool, total)
	for _, s := range append(append([]Sample{}, sp.Train...), sp.Test...) {
		key := [2]int{s.User, s.Service}
		if seen[key] {
			t.Fatalf("pair %v appears twice", key)
		}
		seen[key] = true
	}
}

func TestSliceSplitDensity(t *testing.T) {
	g := testGen(t)
	cfg := g.Config()
	for _, density := range []float64{0.1, 0.3, 0.5} {
		sp, err := SliceSplit(g, dataset.ResponseTime, 0, density, 42)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(len(sp.Train)) / float64(cfg.Users*cfg.Services)
		if math.Abs(got-density) > 0.03 {
			t.Errorf("density %.2f: retained %.3f", density, got)
		}
	}
}

func TestSliceSplitDeterministic(t *testing.T) {
	g := testGen(t)
	a, _ := SliceSplit(g, dataset.Throughput, 1, 0.2, 9)
	b, _ := SliceSplit(g, dataset.Throughput, 1, 0.2, 9)
	if len(a.Train) != len(b.Train) {
		t.Fatal("same seed must give same split size")
	}
	for i := range a.Train {
		if a.Train[i] != b.Train[i] {
			t.Fatal("same seed must give identical stream order")
		}
	}
	c, _ := SliceSplit(g, dataset.Throughput, 1, 0.2, 10)
	if len(a.Train) == len(c.Train) {
		identical := true
		for i := range a.Train {
			if a.Train[i] != c.Train[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds must differ")
		}
	}
}

func TestSliceSplitTimesWithinSlice(t *testing.T) {
	g := testGen(t)
	cfg := g.Config()
	sp, _ := SliceSplit(g, dataset.ResponseTime, 2, 0.3, 3)
	lo := g.SliceTime(2)
	hi := lo + cfg.Interval
	for _, s := range sp.Train {
		if s.Time < lo || s.Time >= hi {
			t.Fatalf("sample time %v outside slice window [%v, %v)", s.Time, lo, hi)
		}
	}
}

func TestSliceSplitValuesMatchGenerator(t *testing.T) {
	g := testGen(t)
	sp, _ := SliceSplit(g, dataset.ResponseTime, 0, 0.5, 8)
	for _, s := range sp.Test[:50] {
		if want := g.Value(dataset.ResponseTime, s.User, s.Service, 0); s.Value != want {
			t.Fatalf("sample (%d,%d) value %g, want %g", s.User, s.Service, s.Value, want)
		}
	}
}

func TestSliceSplitErrors(t *testing.T) {
	g := testGen(t)
	if _, err := SliceSplit(g, dataset.ResponseTime, 0, 0, 1); err == nil {
		t.Error("density 0 should error")
	}
	if _, err := SliceSplit(g, dataset.ResponseTime, 0, 1, 1); err == nil {
		t.Error("density 1 should error")
	}
	if _, err := SliceSplit(g, dataset.ResponseTime, -1, 0.3, 1); err == nil {
		t.Error("negative slice should error")
	}
	if _, err := SliceSplit(g, dataset.ResponseTime, 999, 0.3, 1); err == nil {
		t.Error("out-of-range slice should error")
	}
}

func TestSubsetSplit(t *testing.T) {
	g := testGen(t)
	users := []int{0, 2, 4}
	services := []int{1, 3, 5, 7}
	sp, err := SubsetSplit(g, dataset.ResponseTime, 0, users, services, 0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Train)+len(sp.Test) != len(users)*len(services) {
		t.Fatalf("subset split covers %d pairs, want %d", len(sp.Train)+len(sp.Test), len(users)*len(services))
	}
	inUsers := map[int]bool{0: true, 2: true, 4: true}
	inSvcs := map[int]bool{1: true, 3: true, 5: true, 7: true}
	for _, s := range append(append([]Sample{}, sp.Train...), sp.Test...) {
		if !inUsers[s.User] || !inSvcs[s.Service] {
			t.Fatalf("sample (%d,%d) outside subset", s.User, s.Service)
		}
	}
}

func TestSubsetSplitErrors(t *testing.T) {
	g := testGen(t)
	if _, err := SubsetSplit(g, dataset.ResponseTime, 0, []int{0}, []int{0}, 2, 1); err == nil {
		t.Error("bad density should error")
	}
	if _, err := SubsetSplit(g, dataset.ResponseTime, 99, []int{0}, []int{0}, 0.5, 1); err == nil {
		t.Error("bad slice should error")
	}
}

func TestTripletSampleConversion(t *testing.T) {
	interval := 15 * time.Minute
	ts := []dataset.Triplet{
		{User: 1, Service: 2, Slice: 0, Value: 1.5},
		{User: 3, Service: 4, Slice: 5, Value: 0.2},
	}
	samples := TripletsToSamples(ts, interval)
	if samples[1].Time != 5*interval {
		t.Fatalf("sample time %v, want %v", samples[1].Time, 5*interval)
	}
	for i, tr := range ts {
		if s := samples[i]; s.User != tr.User || s.Service != tr.Service || s.Value != tr.Value {
			t.Fatalf("sample %d: %+v from %+v", i, s, tr)
		}
	}
}
