package core

import (
	"sort"

	"github.com/qoslab/amf/internal/matrix"
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
//
// No binary calls it: the served ranking is PredictView.TopK/TopKAll.
// It stays, in non-test code, as the float64 full-sort reference those
// fast paths are tested against.
func (m *Model) RankServices(user int, candidates []int, lowerIsBetter bool) (ranked []Ranked, unknown []int) {
	u, ok := m.users.Get(user)
	if !ok {
		return nil, append(unknown, candidates...)
	}
	keys := make([]scored, 0, len(candidates))
	for _, c := range candidates {
		s, ok := m.services.Get(c)
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
