package baseline

import (
	"math"

	"github.com/qoslab/amf/internal/matrix"
)

// UPCC is the user-based collaborative filtering predictor: users similar
// to the active user (by Pearson correlation over co-invoked services)
// vote on the unknown QoS value through their deviations from their own
// means.
type UPCC struct {
	m         *matrix.Sparse
	userMeans []float64
	hasMean   []bool
	neighbors [][]neighbor
	global    float64
	hasGlobal bool
}

// TrainUPCC builds a UPCC predictor from a frozen sparse QoS matrix.
func TrainUPCC(m *matrix.Sparse, cfg PCCConfig) *UPCC {
	cfg = cfg.withDefaults()
	keys, vals := rowVectors(m)
	u := &UPCC{
		m:         m,
		userMeans: make([]float64, m.Rows()),
		hasMean:   make([]bool, m.Rows()),
		neighbors: topNeighbors(keys, vals, cfg),
	}
	var sum float64
	var n int
	for i := 0; i < m.Rows(); i++ {
		if mean, ok := m.RowMean(i); ok {
			u.userMeans[i] = mean
			u.hasMean[i] = true
			sum += mean
			n++
		}
	}
	if n > 0 {
		u.global = sum / float64(n)
		u.hasGlobal = true
	}
	return u
}

// Name implements Predictor.
func (u *UPCC) Name() string { return "UPCC" }

// Predict estimates R(user, service) as
//
//	r̄_u + Σ_k sim(u,k)·(R_kj − r̄_k) / Σ_k |sim(u,k)|
//
// over top-K similar users k that invoked the service. It falls back to
// the user mean, then the global mean; (0, false) if even that is missing.
func (u *UPCC) Predict(user, service int) (float64, bool) {
	if user < 0 || user >= u.m.Rows() || service < 0 || service >= u.m.Cols() {
		return 0, false
	}
	// Confidence-free fast path: the weighted vote.
	if v, ok := u.predictCF(user, service); ok {
		return clampMin(v), true
	}
	if u.hasMean[user] {
		return clampMin(u.userMeans[user]), true
	}
	if u.hasGlobal {
		return clampMin(u.global), true
	}
	return 0, false
}

// predictCF returns the pure collaborative-filtering estimate, without
// fallbacks. Exposed through PredictWithConfidence for the UIPCC hybrid.
func (u *UPCC) predictCF(user, service int) (float64, bool) {
	if !u.hasMean[user] {
		return 0, false
	}
	var num, den float64
	for _, nb := range u.neighbors[user] {
		val, ok := u.m.At(nb.id, service)
		if !ok || !u.hasMean[nb.id] {
			continue
		}
		num += nb.sim * (val - u.userMeans[nb.id])
		den += math.Abs(nb.sim)
	}
	if den == 0 {
		return 0, false
	}
	return u.userMeans[user] + num/den, true
}

// PredictWithConfidence returns the CF estimate together with the WSRec
// confidence weight con_u = Σ_k (sim_k/Σsim)·sim_k of the neighbors that
// actually contributed. ok is false when no neighbor vote exists.
func (u *UPCC) PredictWithConfidence(user, service int) (value, confidence float64, ok bool) {
	if user < 0 || user >= u.m.Rows() || service < 0 || service >= u.m.Cols() || !u.hasMean[user] {
		return 0, 0, false
	}
	var num, den, simSum, conNum float64
	for _, nb := range u.neighbors[user] {
		val, okAt := u.m.At(nb.id, service)
		if !okAt || !u.hasMean[nb.id] {
			continue
		}
		num += nb.sim * (val - u.userMeans[nb.id])
		den += math.Abs(nb.sim)
		simSum += nb.sim
		conNum += nb.sim * nb.sim
	}
	if den == 0 {
		return 0, 0, false
	}
	confidence = 0
	if simSum > 0 {
		confidence = conNum / simSum
	}
	return clampMin(u.userMeans[user] + num/den), confidence, true
}
