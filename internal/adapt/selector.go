package adapt

import (
	"math/rand"
)

// Selector is an adaptation policy's answer to "which candidate service
// should this user bind for this task now?". Implementations receive the
// full candidate list and the current binding and return the replacement
// (possibly the current binding itself, meaning "do not adapt").
type Selector interface {
	Name() string
	Select(user int, task Task, current int) int
}

// QoSPredictor is the prediction interface a predicted-best policy needs:
// the estimated response time of (user, service) and whether an estimate
// exists. core.Model.Predict adapts to this trivially.
type QoSPredictor interface {
	PredictRT(user, service int) (float64, bool)
}

// StaticSelector never adapts: the design-time binding stays forever.
// This is the no-adaptation baseline.
type StaticSelector struct{}

// Name implements Selector.
func (StaticSelector) Name() string { return "static" }

// Select returns the current binding unchanged.
func (StaticSelector) Select(_ int, _ Task, current int) int { return current }

// RandomSelector replaces a degraded service with a uniformly random
// other candidate: adaptation without QoS prediction, the paper's
// implicit strawman for why candidate-side prediction matters.
type RandomSelector struct {
	rng *rand.Rand
}

// NewRandomSelector creates a seeded random selector.
func NewRandomSelector(seed int64) *RandomSelector {
	return &RandomSelector{rng: rand.New(rand.NewSource(seed))}
}

// Name implements Selector.
func (*RandomSelector) Name() string { return "random" }

// Select picks a random candidate different from current when possible.
func (r *RandomSelector) Select(_ int, task Task, current int) int {
	if len(task.Candidates) == 1 {
		return task.Candidates[0]
	}
	for {
		c := task.Candidates[r.rng.Intn(len(task.Candidates))]
		if c != current {
			return c
		}
	}
}

// PredictedSelector picks the candidate with the lowest predicted
// response time — the paper's use case for AMF. Candidates without a
// prediction keep a neutral score so a cold model degrades to the current
// binding rather than thrashing.
type PredictedSelector struct {
	pred QoSPredictor
}

// NewPredictedSelector wraps a QoS predictor.
func NewPredictedSelector(pred QoSPredictor) *PredictedSelector {
	return &PredictedSelector{pred: pred}
}

// Name implements Selector.
func (*PredictedSelector) Name() string { return "predicted" }

// Select returns the candidate with the smallest predicted RT; the
// current binding wins ties and unpredictable candidates are skipped.
func (p *PredictedSelector) Select(user int, task Task, current int) int {
	best := current
	bestRT, haveBest := p.pred.PredictRT(user, current)
	for _, c := range task.Candidates {
		if c == current {
			continue
		}
		rt, ok := p.pred.PredictRT(user, c)
		if !ok {
			continue
		}
		if !haveBest || rt < bestRT {
			best, bestRT, haveBest = c, rt, true
		}
	}
	return best
}

// OracleSelector picks by the environment's true long-run pair quality:
// an upper bound no predictor can beat, used to normalize experiment
// results.
type OracleSelector struct {
	truth func(user, service int) float64
}

// NewOracleSelector wraps a ground-truth function (e.g. the dataset
// generator's PairMean).
func NewOracleSelector(truth func(user, service int) float64) *OracleSelector {
	return &OracleSelector{truth: truth}
}

// Name implements Selector.
func (*OracleSelector) Name() string { return "oracle" }

// Select returns the candidate with the smallest true mean RT.
func (o *OracleSelector) Select(user int, task Task, current int) int {
	best := current
	bestRT := o.truth(user, current)
	for _, c := range task.Candidates {
		if rt := o.truth(user, c); rt < bestRT {
			best, bestRT = c, rt
		}
	}
	return best
}
