package server

import (
	"fmt"
	"math"
	"time"

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
// the HTTP observe endpoint, but hands the model update to the engine's
// ingest queue fire-and-forget — the high-rate stream never waits on
// model math, and visibility is bounded by the engine's publish cadence
// rather than immediate. If the queue rejects the sample (engine
// closed), it is applied inline so no accepted observation is lost.
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
	uid, newU := s.users.Register(user)
	sid, newS := s.services.Register(service)
	// Journal new name⇄ID bindings before the sample can reach the
	// engine's journal (Enqueue happens below, so the drain that journals
	// this sample is strictly later): replay then rebuilds the directory
	// entry before re-training the factors keyed by it.
	if s.durable != nil {
		if newU {
			s.journalRegistration(s.durable.WAL().AppendRegisterUser, uid, user)
		}
		if newS {
			s.journalRegistration(s.durable.WAL().AppendRegisterService, sid, service)
		}
	}
	t := s.now().Sub(s.base)
	if timestampMs > 0 {
		t = time.UnixMilli(timestampMs).Sub(s.base)
		if t < 0 {
			t = 0
		}
	}
	sample := stream.Sample{Time: t, User: uid, Service: sid, Value: value}
	// Live accuracy: one lock-free view read scores the sample against
	// the model's prior prediction before it trains on it.
	s.scoreSample(sample)
	// TCP ingest is the fire-and-forget firehose: it enters the engine
	// queue as sheddable-class work, so under overload the watermark
	// refuses it (counted in amf_admission_shed_total{class="sheddable"})
	// instead of churning the queue. A refusal is not an error — the
	// stream protocol has no per-sample ack and the model prefers fresh
	// data anyway. Only a closed engine falls back to inline apply, so
	// accepted pre-shutdown observations are never lost.
	if !s.eng.EnqueueClass(sample, control.Sheddable) && s.eng.Closed() {
		s.eng.Observe(sample)
	}
	s.metrics.observations.Add(1)
	return nil
}
