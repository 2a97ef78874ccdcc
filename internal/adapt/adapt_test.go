package adapt

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/stream"
)

func TestStaticSelectorNeverMoves(t *testing.T) {
	if got := staticPick(0, []int{1, 2, 3}, 2); got != 2 {
		t.Fatalf("static moved to %d", got)
	}
}

func TestRandomSelectorAvoidsCurrent(t *testing.T) {
	pick := randomPick(rand.New(rand.NewSource(1)))
	for i := 0; i < 50; i++ {
		if got := pick(0, []int{1, 2, 3}, 2); got == 2 {
			t.Fatal("random strategy returned the current binding despite alternatives")
		}
	}
	if got := pick(0, []int{7}, 7); got != 7 {
		t.Fatalf("single candidate must stay, got %d", got)
	}
}

// tablePredictor predicts from a fixed table; missing entries are unknown.
type tablePredictor map[[2]int]float64

func (t tablePredictor) predict(user, service int) (float64, error) {
	v, ok := t[[2]int{user, service}]
	if !ok {
		return 0, errors.New("unknown pair")
	}
	return v, nil
}

func TestPredictedSelectorPicksBest(t *testing.T) {
	pred := tablePredictor{
		{0, 1}: 3.0,
		{0, 2}: 0.5,
		{0, 3}: 1.5,
	}
	if got := predictedPick(pred.predict)(0, []int{1, 2, 3}, 1); got != 2 {
		t.Fatalf("predicted strategy chose %d, want 2", got)
	}
}

func TestPredictedSelectorSkipsUnknownCandidates(t *testing.T) {
	pred := tablePredictor{{0, 1}: 3.0}
	// Candidate 2 is unknown: stay on 1.
	if got := predictedPick(pred.predict)(0, []int{1, 2}, 1); got != 1 {
		t.Fatalf("strategy moved to unpredictable candidate %d", got)
	}
}

func TestPredictedSelectorColdModelStays(t *testing.T) {
	if got := predictedPick(tablePredictor{}.predict)(0, []int{1, 2}, 1); got != 1 {
		t.Fatalf("cold model should keep current binding, got %d", got)
	}
}

func TestOracleSelector(t *testing.T) {
	truth := func(u, s int) float64 { return float64(s) } // lower id = better
	if got := oraclePick(truth)(0, []int{5, 3, 9}, 9); got != 3 {
		t.Fatalf("oracle chose %d, want 3", got)
	}
}

// simWorld builds simDataset's generator and a workflow over it.
func simWorld() (*dataset.Generator, [][]int) {
	ds := simDataset()
	return dataset.MustNew(ds), workflow(ds.Services, 5)
}

func TestStaticSelectorNoAdaptationEver(t *testing.T) {
	gen, wf := simWorld()
	violations := 0
	sr := play(gen, wf, 5, staticPick, func(s stream.Sample) {
		if s.Value > SLA {
			violations++
		}
	}, nil)
	if violations == 0 {
		t.Fatal("no invocation violated the SLA; the test shows nothing")
	}
	if sr.Adaptations != 0 {
		t.Fatalf("static strategy adapted %d times", sr.Adaptations)
	}
}

// TestPlayObservesAndAdapts holds the loop to its contract: every
// invocation is observed with the generator's value, in slice, user, task
// order, and a violated task is invoked on what pick returned from the
// next slice on.
func TestPlayObservesAndAdapts(t *testing.T) {
	gen, wf := simWorld()
	ds := gen.Config()
	// Always move to the next candidate, so every violation adapts.
	next := func(_ int, cands []int, current int) int {
		for i, c := range cands {
			if c == current {
				return cands[(i+1)%len(cands)]
			}
		}
		t.Fatalf("current binding %d is not among candidates %v", current, cands)
		return current
	}
	var seen []stream.Sample
	sr := play(gen, wf, 5, next, func(s stream.Sample) { seen = append(seen, s) }, nil)

	if sr.Invocations != ds.Users*ds.Slices*tasks || len(seen) != sr.Invocations {
		t.Fatalf("invocations %d, observed %d, want %d", sr.Invocations, len(seen), ds.Users*ds.Slices*tasks)
	}
	violations := 0
	for i, s := range seen {
		slice, u, task := i/(ds.Users*tasks), i/tasks%ds.Users, i%tasks
		if s.User != u || s.Value != gen.Value(dataset.ResponseTime, u, s.Service, slice) {
			t.Fatalf("sample %d = %+v, want user %d's invocation at slice %d", i, s, u, slice)
		}
		if s.Time < gen.SliceTime(slice) || (i > 0 && s.Time < seen[i-1].Time) {
			t.Fatalf("sample %d stamped %v, before its slice or its predecessor", i, s.Time)
		}
		if s.Value <= SLA {
			continue
		}
		violations++
		if later := i + ds.Users*tasks; later < len(seen) {
			if want := next(u, wf[task], s.Service); seen[later].Service != want {
				t.Fatalf("user %d task %d violated on %d, next slice invoked %d, want %d",
					u, task, s.Service, seen[later].Service, want)
			}
		}
	}
	if violations == 0 || sr.Adaptations != violations {
		t.Fatalf("adaptations %d, violations %d: want every violation to adapt", sr.Adaptations, violations)
	}
	if want := float64(violations) / float64(sr.Invocations); sr.ViolationRate != want {
		t.Fatalf("violation rate %g, want %g", sr.ViolationRate, want)
	}
}
