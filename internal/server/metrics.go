package server

import "net/http"

// metricsRoutes registers the /metrics endpoint; called from routes().
// The families themselves are built in buildMetrics (obs.go).
func (s *Server) metricsRoutes() {
	s.handle("GET /metrics", s.handleMetrics)
}

// handleMetrics renders the full metric catalog in the Prometheus text
// exposition format: every family carries # HELP and # TYPE headers,
// counters end in _total, durations are _seconds, and histograms expand
// into cumulative _bucket/_sum/_count series. The output is validated
// against the strict in-repo parser (obs.ParseMetrics) by the test suite.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.countStatus(http.StatusOK)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}
