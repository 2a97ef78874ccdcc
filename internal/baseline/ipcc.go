package baseline

import (
	"math"

	"github.com/qoslab/amf/internal/matrix"
)

// IPCC is the item(service)-based collaborative filtering predictor:
// services similar to the target service (by Pearson correlation over
// common users) vote on the unknown QoS value.
type IPCC struct {
	m         *matrix.Sparse
	svcMeans  []float64
	hasMean   []bool
	neighbors [][]neighbor
	global    float64
	hasGlobal bool
}

// TrainIPCC builds an IPCC predictor from a frozen sparse QoS matrix.
// Note that for m services this computes O(m²) candidate similarities;
// at the paper's full scale (4,500 services) this is the dominant cost of
// the UIPCC family and part of why they cannot be retrained online
// (paper Fig. 13).
func TrainIPCC(m *matrix.Sparse, cfg PCCConfig) *IPCC {
	cfg = cfg.withDefaults()
	keys, vals := colVectors(m)
	p := &IPCC{
		m:         m,
		svcMeans:  make([]float64, m.Cols()),
		hasMean:   make([]bool, m.Cols()),
		neighbors: topNeighbors(keys, vals, cfg),
	}
	var sum float64
	var n int
	for j := 0; j < m.Cols(); j++ {
		if mean, ok := m.ColMean(j); ok {
			p.svcMeans[j] = mean
			p.hasMean[j] = true
			sum += mean
			n++
		}
	}
	if n > 0 {
		p.global = sum / float64(n)
		p.hasGlobal = true
	}
	return p
}

// Name implements Predictor.
func (p *IPCC) Name() string { return "IPCC" }

// Predict estimates R(user, service) as
//
//	r̄_j + Σ_k sim(j,k)·(R_ik − r̄_k) / Σ_k |sim(j,k)|
//
// over top-K similar services k the user has invoked, falling back to the
// service mean, then the global mean.
func (p *IPCC) Predict(user, service int) (float64, bool) {
	if user < 0 || user >= p.m.Rows() || service < 0 || service >= p.m.Cols() {
		return 0, false
	}
	if v, ok := p.predictCF(user, service); ok {
		return clampMin(v), true
	}
	if p.hasMean[service] {
		return clampMin(p.svcMeans[service]), true
	}
	if p.hasGlobal {
		return clampMin(p.global), true
	}
	return 0, false
}

func (p *IPCC) predictCF(user, service int) (float64, bool) {
	if !p.hasMean[service] {
		return 0, false
	}
	var num, den float64
	for _, nb := range p.neighbors[service] {
		val, ok := p.m.At(user, nb.id)
		if !ok || !p.hasMean[nb.id] {
			continue
		}
		num += nb.sim * (val - p.svcMeans[nb.id])
		den += math.Abs(nb.sim)
	}
	if den == 0 {
		return 0, false
	}
	return p.svcMeans[service] + num/den, true
}

// PredictWithConfidence returns the CF estimate and the confidence weight
// con_i of the contributing neighborhood, for the UIPCC hybrid.
func (p *IPCC) PredictWithConfidence(user, service int) (value, confidence float64, ok bool) {
	if user < 0 || user >= p.m.Rows() || service < 0 || service >= p.m.Cols() || !p.hasMean[service] {
		return 0, 0, false
	}
	var num, den, simSum, conNum float64
	for _, nb := range p.neighbors[service] {
		val, okAt := p.m.At(user, nb.id)
		if !okAt || !p.hasMean[nb.id] {
			continue
		}
		num += nb.sim * (val - p.svcMeans[nb.id])
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
	return clampMin(p.svcMeans[service] + num/den), confidence, true
}
