// Package baseline implements the offline approaches AMF is compared
// against. Table I's four:
//
//   - UPCC: user-based collaborative filtering with Pearson correlation
//     (Zheng et al., "QoS-aware web service recommendation by
//     collaborative filtering", IEEE TSC 2011),
//   - IPCC: the item(service)-based counterpart,
//   - UIPCC: the confidence-weighted hybrid of the two,
//   - PMF: batch probabilistic matrix factorization (Salakhutdinov &
//     Mnih, NIPS 2007) minimizing squared error by gradient descent;
//
// the UMEAN and IMEAN sanity floors; and two extension baselines,
// BiasedMF and NIMF.
//
// They are built from two mechanisms. A neighborhood predictor works over
// one axis of the matrix (users for UPCC and UMEAN, services for IPCC and
// IMEAN): its entities' means and, for the CF pair, each entity's top-K
// PCC neighbors; UIPCC blends one of each axis. A factorizer runs one SGD
// loop for PMF, BiasedMF and NIMF, which differ only in their estimate
// and gradient step. Every setting is the one the comparison uses, fixed
// as a constant.
//
// All of them train offline on a sparse user-service QoS matrix of one
// time slice; none can incorporate a new sample without retraining, which
// is exactly the limitation AMF removes (paper Sec. IV-B).
package baseline

import (
	"math"
	"sort"

	"github.com/qoslab/amf/internal/matrix"
)

// The PCC neighborhood setting of the WSRec evaluation.
const (
	// pccTopK bounds each entity's neighborhood.
	pccTopK = 10
	// pccMinCommon is the fewest common observations a similarity is
	// trusted from: a single one always yields |PCC| = 1, which is noise.
	pccMinCommon = 2
	// uipccLambda is the a-priori weight of UIPCC's user-based estimate;
	// the WSRec default of 0.1 reflects that service-side similarity is
	// usually more informative for QoS.
	uipccLambda = 0.1
)

// clampMin keeps the neighborhood predictions physically meaningful: QoS
// values such as response time and throughput cannot be negative, but
// PCC extrapolation can be.
func clampMin(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// neighbor is one entry of a similarity list.
type neighbor struct {
	id  int
	sim float64
}

// pcc computes the Pearson correlation coefficient between two sparse
// vectors given as parallel (sorted-by-key) key/value slices, over their
// common keys only, with means taken over the common subset (as in the
// WSRec formulation). It returns (0, count) when undefined or when fewer
// than minCommon keys are common.
func pcc(keysA []int, valsA []float64, keysB []int, valsB []float64, minCommon int) (float64, int) {
	var common int
	var sumA, sumB float64
	ia, ib := 0, 0
	// First pass: common count and means over the intersection.
	for ia < len(keysA) && ib < len(keysB) {
		switch {
		case keysA[ia] < keysB[ib]:
			ia++
		case keysA[ia] > keysB[ib]:
			ib++
		default:
			sumA += valsA[ia]
			sumB += valsB[ib]
			common++
			ia++
			ib++
		}
	}
	if common < minCommon {
		return 0, common
	}
	meanA := sumA / float64(common)
	meanB := sumB / float64(common)
	var num, denA, denB float64
	ia, ib = 0, 0
	for ia < len(keysA) && ib < len(keysB) {
		switch {
		case keysA[ia] < keysB[ib]:
			ia++
		case keysA[ia] > keysB[ib]:
			ib++
		default:
			da := valsA[ia] - meanA
			db := valsB[ib] - meanB
			num += da * db
			denA += da * da
			denB += db * db
			ia++
			ib++
		}
	}
	if denA == 0 || denB == 0 {
		return 0, common
	}
	return num / math.Sqrt(denA*denB), common
}

// axisVectors splits a frozen matrix into one vector per row (byRow) or
// per column: the indices on the other axis it observed, ascending, and
// the values, aligned with them.
func axisVectors(m *matrix.Sparse, byRow bool) (keys [][]int, vals [][]float64) {
	n := m.Cols()
	if byRow {
		n = m.Rows()
	}
	keys = make([][]int, n)
	vals = make([][]float64, n)
	for _, e := range m.Entries() {
		a, b := e.Col, e.Row
		if byRow {
			a, b = e.Row, e.Col
		}
		keys[a] = append(keys[a], b)
		vals[a] = append(vals[a], e.Val)
	}
	return keys, vals
}

// topNeighbors computes, for every entity (row of keys/vals), its top
// pccTopK positive-similarity neighbors among all other entities, each
// similarity shrunk by the WSRec significance weight 2|J| / (|I_a|+|I_b|)
// for the |J| observations it was estimated from. Neighborhoods are kept
// as bounded insertion lists so memory stays O(n·K) even at the paper's
// 4,500-service scale, where the pairwise candidate count is ~10 million.
func topNeighbors(keys [][]int, vals [][]float64) [][]neighbor {
	n := len(keys)
	sims := make([][]neighbor, n)
	push := func(list []neighbor, nb neighbor) []neighbor {
		if len(list) < pccTopK {
			return append(list, nb)
		}
		// Replace the current minimum if the candidate beats it.
		minIdx := 0
		for i := 1; i < len(list); i++ {
			if list[i].sim < list[minIdx].sim {
				minIdx = i
			}
		}
		if nb.sim > list[minIdx].sim {
			list[minIdx] = nb
		}
		return list
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			s, common := pcc(keys[a], vals[a], keys[b], vals[b], pccMinCommon)
			if s <= 0 {
				continue
			}
			s *= 2 * float64(common) / float64(len(keys[a])+len(keys[b]))
			sims[a] = push(sims[a], neighbor{id: b, sim: s})
			sims[b] = push(sims[b], neighbor{id: a, sim: s})
		}
	}
	for a := 0; a < n; a++ {
		sort.Slice(sims[a], func(i, j int) bool { return sims[a][i].sim > sims[a][j].sim })
	}
	return sims
}

// neighborhood is the memory-based predictor over one axis of the QoS
// matrix: its entities are the users (byRow) or the services. With
// neighbors it is UPCC or IPCC: the entity's top-K similar entities that
// observed the other side of the cell vote on it through their deviations
// from their own means. Without, it is UMEAN or IMEAN. Either falls back
// to the entity's mean, then to the global mean of entity means.
type neighborhood struct {
	byRow     bool
	keys      [][]int     // per entity, the other axis' indices it observed, ascending
	vals      [][]float64 // the observed values, aligned with keys
	means     []float64   // per entity, the mean of vals (0 if it observed nothing)
	global    float64
	hasGlobal bool
	others    int          // the other axis' size
	neighbors [][]neighbor // per entity, by descending similarity; nil for a mean predictor
}

// trainNeighborhood builds the predictor over m's rows (byRow) or
// columns, with each entity's PCC neighbors if vote is set. For m
// services, IPCC computes O(m²) candidate similarities; at the paper's
// full scale (4,500 services) this is the dominant cost of the UIPCC
// family and part of why they cannot be retrained online (paper Fig. 13).
func trainNeighborhood(m *matrix.Sparse, byRow, vote bool) *neighborhood {
	p := &neighborhood{byRow: byRow, others: m.Rows()}
	if byRow {
		p.others = m.Cols()
	}
	p.keys, p.vals = axisVectors(m, byRow)
	if vote {
		p.neighbors = topNeighbors(p.keys, p.vals)
	}
	p.means = make([]float64, len(p.keys))
	var sum float64
	var n int
	for a, vs := range p.vals {
		if len(vs) == 0 {
			continue
		}
		var s float64
		for _, v := range vs {
			s += v
		}
		p.means[a] = s / float64(len(vs))
		sum += p.means[a]
		n++
	}
	if n > 0 {
		p.global = sum / float64(n)
		p.hasGlobal = true
	}
	return p
}

// TrainUMEAN builds the user-mean floor: every unknown value is the
// active user's observed mean. It and IMEAN are the standard lower-bound
// baselines of the WSRec literature (Zheng et al., TSC 2011): any
// collaborative approach should beat them.
func TrainUMEAN(m *matrix.Sparse) func(user, service int) (float64, bool) {
	return trainNeighborhood(m, true, false).Predict
}

// TrainIMEAN builds the service-mean floor, UMEAN's counterpart.
func TrainIMEAN(m *matrix.Sparse) func(user, service int) (float64, bool) {
	return trainNeighborhood(m, false, false).Predict
}

// TrainUPCC builds user-based collaborative filtering: users similar to
// the active user, by Pearson correlation over co-invoked services, vote
// on the unknown value.
func TrainUPCC(m *matrix.Sparse) func(user, service int) (float64, bool) {
	return trainNeighborhood(m, true, true).Predict
}

// TrainIPCC builds service-based collaborative filtering: services
// similar to the target, by Pearson correlation over common users, vote
// on the unknown value.
func TrainIPCC(m *matrix.Sparse) func(user, service int) (float64, bool) {
	return trainNeighborhood(m, false, true).Predict
}

// axis maps a (user, service) cell onto the predictor's axis: a is the
// entity the cell belongs to, b its index on the other axis, and in
// whether the cell lies inside the matrix.
func (p *neighborhood) axis(user, service int) (a, b int, in bool) {
	if !p.byRow {
		user, service = service, user
	}
	return user, service, user >= 0 && user < len(p.keys) && service >= 0 && service < p.others
}

// Predict estimates R(user, service) by the neighbors' vote, falling back
// to the entity's mean, then the global mean; (0, false) if even that is
// missing or the cell lies outside the matrix.
func (p *neighborhood) Predict(user, service int) (float64, bool) {
	a, _, in := p.axis(user, service)
	if !in {
		return 0, false
	}
	if v, _, ok := p.vote(user, service); ok {
		return v, true
	}
	if len(p.keys[a]) > 0 {
		return clampMin(p.means[a]), true
	}
	if p.hasGlobal {
		return clampMin(p.global), true
	}
	return 0, false
}

// vote is the collaborative-filtering estimate of entity a at index b,
//
//	r̄_a + Σ_k sim(a,k)·(R_kb − r̄_k) / Σ_k |sim(a,k)|
//
// over a's neighbors k that observed b, clamped at 0, with the WSRec
// confidence weight con_a = Σ_k (sim_k/Σsim)·sim_k of those neighbors.
// ok is false when no neighbor votes, as always for a mean predictor.
func (p *neighborhood) vote(user, service int) (value, confidence float64, ok bool) {
	a, b, in := p.axis(user, service)
	if !in || p.neighbors == nil || len(p.keys[a]) == 0 {
		return 0, 0, false
	}
	var num, den, simSum, conNum float64
	for _, nb := range p.neighbors[a] {
		keys := p.keys[nb.id]
		k := sort.SearchInts(keys, b)
		if k == len(keys) || keys[k] != b {
			continue
		}
		num += nb.sim * (p.vals[nb.id][k] - p.means[nb.id])
		den += math.Abs(nb.sim)
		simSum += nb.sim
		conNum += nb.sim * nb.sim
	}
	if den == 0 {
		return 0, 0, false
	}
	if simSum > 0 {
		confidence = conNum / simSum
	}
	return clampMin(p.means[a] + num/den), confidence, true
}

// uipcc hybridizes UPCC and IPCC with confidence weighting (Zheng et al.,
// IEEE TSC 2011): the two CF estimates are blended by weights derived
// from each neighborhood's confidence and uipccLambda.
type uipcc struct {
	u, i *neighborhood
}

// TrainUIPCC builds the hybrid from a frozen sparse QoS matrix.
func TrainUIPCC(m *matrix.Sparse) func(user, service int) (float64, bool) {
	h := &uipcc{u: trainNeighborhood(m, true, true), i: trainNeighborhood(m, false, true)}
	return h.Predict
}

// Predict blends the two CF estimates:
//
//	w_u = λ·con_u / (λ·con_u + (1−λ)·con_i),  w_i = 1 − w_u
//	r̂ = w_u·r̂_UPCC + w_i·r̂_IPCC
//
// degrading gracefully to whichever single estimate exists, then to the
// component fallbacks.
func (h *uipcc) Predict(user, service int) (float64, bool) {
	uv, ucon, uok := h.u.vote(user, service)
	iv, icon, iok := h.i.vote(user, service)
	switch {
	case uok && iok:
		wu := uipccLambda * ucon
		wi := (1 - uipccLambda) * icon
		if wu+wi == 0 {
			// Both neighborhoods exist but carry zero confidence; fall
			// back to the a-priori blend.
			wu, wi = uipccLambda, 1-uipccLambda
		}
		return clampMin((wu*uv + wi*iv) / (wu + wi)), true
	case uok:
		return uv, true
	case iok:
		return iv, true
	default:
		// Neither CF estimate exists: UPCC's fallback chain (user mean →
		// global), then IPCC's (service mean → global).
		if v, ok := h.u.Predict(user, service); ok {
			return v, true
		}
		return h.i.Predict(user, service)
	}
}
