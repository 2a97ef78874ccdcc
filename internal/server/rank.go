package server

import (
	"net/http"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/obs/trace"
)

// This file implements POST /api/v1/rank — the candidate-ranking query of
// the paper's runtime service adaptation loop (Sec. III), served entirely
// from one immutable core.PredictView via the bounded-heap arena fast
// path (internal/core/topk.go). Name resolution is batched (one registry
// RLock per request) and every ranking is one serial scan on the
// request's goroutine: on a catalog that stays in L2 a fan-out across
// cores measured slower than the scan it splits, and a loaded server has
// no idle cores to lend (DESIGN.md "Ranking fast path").

// rankRoutes registers the ranking endpoint; called from routes().
func (s *Server) rankRoutes() {
	s.handleGated("POST /api/v1/rank", s.handleRank)
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request, _ *trace.Span) {
	b, ok := s.readHot(w, r)
	if !ok {
		return
	}
	defer b.release()
	q, err := b.dec.Rank(b.raw, s.MaxBatch)
	if err != nil {
		s.decodeError(w, err, "candidate set")
		return
	}
	if len(q.User) == 0 {
		s.countError(w, http.StatusBadRequest, "user is required")
		return
	}
	lowerIsBetter := true
	var metric string
	switch string(q.Metric) {
	case "", "rt", "responseTime":
		metric = "rt"
	case "tp", "throughput":
		metric = "tp"
		lowerIsBetter = false
	default:
		s.countError(w, http.StatusBadRequest, "unknown metric %q (want rt or tp)", q.Metric)
		return
	}
	if len(q.Services) == 0 && q.TopK <= 0 {
		s.countError(w, http.StatusBadRequest, "topk is required when ranking all services")
		return
	}
	// A full scan sorts and serialises topk results, so topk is as much
	// the size of the request as a candidate list is.
	if len(q.Services) == 0 && q.TopK > s.MaxBatch {
		s.countError(w, http.StatusRequestEntityTooLarge, "topk %d exceeds limit %d", q.TopK, s.MaxBatch)
		return
	}

	uid, ok := s.users.LookupBytes(q.User)
	if !ok {
		s.countError(w, http.StatusNotFound, "unknown user %q", q.User)
		return
	}

	start := time.Now()
	view := s.eng.Pin() // one consistent snapshot for the whole ranking
	var (
		mode       string
		candidates int
		ranked     []core.Ranked
		unknown    = b.unknown[:0]
	)
	if len(q.Services) == 0 {
		// Rank everything the view knows: pure arena scan, no map walks.
		mode = "full_scan"
		ranked = view.TopKAll(uid, q.TopK, lowerIsBetter, 1)
		candidates = view.NumServices()
	} else {
		// Resolve every candidate name in one registry pass.
		b.ids = s.services.ResolveAll(q.Services, b.ids)
		cands, candAt := b.cands[:0], b.candAt[:0]
		for i, id := range b.ids {
			if id < 0 {
				unknown = append(unknown, q.Services[i])
				continue
			}
			cands = append(cands, id)
			candAt = append(candAt, i)
		}
		b.cands, b.candAt = cands, candAt
		candidates = len(cands)
		k := q.TopK
		if k <= 0 || k > len(cands) {
			k = len(cands)
		}
		mode = "serial"
		var unknownIDs []int
		ranked, unknownIDs = view.TopK(uid, cands, k, lowerIsBetter)
		// Candidates registered but absent from the view (e.g. purged by
		// churn): map the returned IDs back to names. Both unknownIDs and
		// cands preserve candidate order, so a two-pointer walk recovers
		// the names without building an id->name map.
		for i, ui := 0, 0; i < len(cands) && ui < len(unknownIDs); i++ {
			if unknownIDs[ui] == cands[i] {
				unknown = append(unknown, q.Services[candAt[i]])
				ui++
			}
		}
	}
	version := view.Version()
	s.eng.Unpin(view)
	b.unknown = unknown
	b.ranked = s.appendRankedNames(b.ranked[:0], ranked)

	s.rankLatency.With(mode).Observe(time.Since(start).Seconds())
	s.metrics.rankRequests.Inc()
	s.metrics.rankCandidates.Add(int64(candidates))
	b.out, err = appendRankResponse(b.out[:0], q.User, metric, b.ranked, unknown, candidates, version)
	s.writeHot(w, b.out, err)
}

// appendRankedNames maps ranked model IDs back to registered service
// names. Entries whose registration vanished mid-flight (deregistered
// between the view load and now) keep a stable synthetic name.
func (s *Server) appendRankedNames(dst []RankedService, ranked []core.Ranked) []RankedService {
	for _, r := range ranked {
		name, ok := s.services.NameOf(r.Service)
		if !ok {
			name = "#departed"
		}
		dst = append(dst, RankedService{Service: name, Value: r.Value})
	}
	return dst
}
