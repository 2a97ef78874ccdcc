package core

import (
	"sort"

	"github.com/qoslab/amf/internal/matrix"
	"github.com/qoslab/amf/internal/transform"
)

// Ranked is one entry of a candidate ranking.
type Ranked struct {
	Service int
	Value   float64
}

// RankServices predicts the QoS of every candidate service for a user and
// returns the candidates sorted by predicted value — ascending when
// lowerIsBetter (response time), descending otherwise (throughput). This
// is the candidate-selection query a service adaptation action issues
// (paper Sec. III). Candidates without a prediction (unknown service, or
// unknown user) are omitted; the second result lists them.
//
// Ordering is defined on the raw latent score Ui·Sj with ties broken by
// ascending service ID — the same deterministic rule PredictView's
// ranking fast path applies to its float32 keys (see topk.go), so the
// two agree except between services whose float64 scores are closer
// than float32 resolves.
func (m *Model) RankServices(user int, candidates []int, lowerIsBetter bool) (ranked []Ranked, unknown []int) {
	u, ok := m.users.get(user)
	if !ok {
		return nil, append(unknown, candidates...)
	}
	keys := make([]scored, 0, len(candidates))
	for _, c := range candidates {
		s, ok := m.services.get(c)
		if !ok {
			unknown = append(unknown, c)
			continue
		}
		keys = append(keys, scored{service: c, key: matrix.Dot(u.vec, s.vec)})
	}
	sort.Slice(keys, func(i, j int) bool { return betterScored(keys[i], keys[j], lowerIsBetter) })
	ranked = finishRanked(make([]Ranked, 0, len(keys)), keys, m.tr)
	return ranked, unknown
}

// Best returns the top-ranked candidate in a single O(n) scan — no sort,
// no intermediate ranking — or ok=false when none is predictable.
func (m *Model) Best(user int, candidates []int, lowerIsBetter bool) (Ranked, bool) {
	u, ok := m.users.get(user)
	if !ok {
		return Ranked{}, false
	}
	best := scored{}
	found := false
	for _, c := range candidates {
		s, ok := m.services.get(c)
		if !ok {
			continue
		}
		cand := scored{service: c, key: matrix.Dot(u.vec, s.vec)}
		if !found || betterScored(cand, best, lowerIsBetter) {
			best, found = cand, true
		}
	}
	if !found {
		return Ranked{}, false
	}
	return Ranked{Service: best.service, Value: m.tr.Backward(transform.Sigmoid(best.key))}, true
}

// Flagged is one entity whose tracked relative error exceeds a threshold.
type Flagged struct {
	ID    int
	Error float64
}

// HighErrorUsers returns users whose EMA relative error (Eq. 13) is at or
// above threshold, worst first. Operationally these are the entities the
// model currently predicts poorly — newcomers still converging, or users
// whose QoS regime shifted — and the ones adaptation policies should
// treat with low confidence.
func (m *Model) HighErrorUsers(threshold float64) []Flagged {
	return flagHighError(m.users, threshold)
}

// HighErrorServices is HighErrorUsers for the service side (Eq. 14).
func (m *Model) HighErrorServices(threshold float64) []Flagged {
	return flagHighError(m.services, threshold)
}

func flagHighError(entities *entityTable, threshold float64) []Flagged {
	var out []Flagged
	entities.each(func(id int, e *entity) {
		if v := e.err.Value(); v >= threshold {
			out = append(out, Flagged{ID: id, Error: v})
		}
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Error != out[j].Error {
			return out[i].Error > out[j].Error
		}
		return out[i].ID < out[j].ID
	})
	return out
}
