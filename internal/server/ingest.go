package server

import (
	"fmt"
	"math"

	"github.com/qoslab/amf/internal/control"
	"github.com/qoslab/amf/internal/stream"
)

// validQoS is the one predicate every write door holds an observed value
// to: finite and non-negative. A NaN or ±Inf that reached the model would
// turn its user's and service's factors NaN after one SGD step, and every
// prediction touching either into a 500.
func validQoS(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Ingest implements ingest.Sink: the TCP stream-input path feeds
// observations through the same registration and storage pipeline as
// the HTTP observe endpoint (joinUser, joinService, sampleTime), but
// hands the model update to the engine's ingest queue fire-and-forget —
// the high-rate stream never waits on model math, and visibility is
// bounded by the engine's publish cadence rather than immediate.
func (s *Server) Ingest(user, service string, value float64, timestampMs int64) error {
	if s.follower.Load() {
		return fmt.Errorf("server: follower: writes must go to the leader")
	}
	if user == "" || service == "" {
		return fmt.Errorf("server: user and service are required")
	}
	if !validQoS(value) {
		return fmt.Errorf("server: invalid QoS value %g", value)
	}
	s.churn.RLock()
	defer s.churn.RUnlock()
	uid, _ := s.users.RegisterBytes([]byte(user), s.joinUser)
	sid, _ := s.services.RegisterBytes([]byte(service), s.joinService)
	sm := stream.Sample{Time: s.sampleTime(timestampMs, s.now().Sub(s.base)), User: uid, Service: sid, Value: value}
	// TCP ingest is the fire-and-forget firehose: it enters the engine
	// queue as sheddable-class work, so under overload the watermark
	// refuses it (counted in amf_admission_shed_total{class="sheddable"})
	// instead of churning the queue. A refusal is not an error — the
	// stream protocol has no per-sample ack and the model prefers fresh
	// data anyway. Only a closed engine falls back to applying it inline
	// through the synchronous door, so accepted pre-shutdown observations
	// are never lost.
	if !s.eng.EnqueueClass(sm, control.Sheddable) && s.eng.Closed() {
		s.eng.ObserveAll([]stream.Sample{sm})
	}
	s.metrics.observations.Add(1)
	return nil
}
