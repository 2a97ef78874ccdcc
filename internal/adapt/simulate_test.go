package adapt

import (
	"testing"
	"time"

	"github.com/qoslab/amf/internal/dataset"
)

func simDataset() dataset.Config {
	return dataset.Config{Users: 20, Services: 60, Slices: 6, Interval: 15 * time.Minute, Rank: 5, Seed: 99}
}

func TestRunSimulationStrategyOrdering(t *testing.T) {
	res, err := RunSimulation(simDataset(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strategies) != 4 {
		t.Fatalf("strategies = %d", len(res.Strategies))
	}
	byName := map[string]StrategyResult{}
	for _, s := range res.Strategies {
		byName[s.Name] = s
		if s.Invocations == 0 {
			t.Fatalf("%s made no invocations", s.Name)
		}
	}
	static := byName["static"]
	predicted := byName["predicted"]
	oracle := byName["oracle"]

	// The paper's motivation: QoS-prediction-driven adaptation beats no
	// adaptation, and approaches the oracle.
	if predicted.ViolationRate >= static.ViolationRate {
		t.Errorf("predicted violation rate %.3f should beat static %.3f",
			predicted.ViolationRate, static.ViolationRate)
	}
	if oracle.ViolationRate > predicted.ViolationRate+0.02 {
		t.Errorf("oracle %.3f should be at least as good as predicted %.3f",
			oracle.ViolationRate, predicted.ViolationRate)
	}
	if static.Adaptations != 0 {
		t.Errorf("static adapted %d times", static.Adaptations)
	}
	if predicted.Adaptations == 0 {
		t.Error("predicted strategy never adapted")
	}
	if predicted.MeanLatency >= static.MeanLatency {
		t.Errorf("predicted mean latency %.3f should beat static %.3f",
			predicted.MeanLatency, static.MeanLatency)
	}
}

func TestRunSimulationValidation(t *testing.T) {
	bad := simDataset()
	bad.Users = 0
	if _, err := RunSimulation(bad, 5); err == nil {
		t.Error("invalid dataset should error")
	}
	// A workflow needing more candidates than services exist.
	small := simDataset()
	small.Services = tasks*candidates - 1
	if _, err := RunSimulation(small, 5); err == nil {
		t.Error("oversized workflow should error")
	}
}

func TestRunSimulationDeterministic(t *testing.T) {
	ds := simDataset()
	ds.Slices = 2
	a, err := RunSimulation(ds, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSimulation(ds, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Strategies {
		if a.Strategies[i] != b.Strategies[i] {
			t.Fatalf("non-deterministic simulation: %+v vs %+v", a.Strategies[i], b.Strategies[i])
		}
	}
}
