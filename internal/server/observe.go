package server

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"github.com/qoslab/amf/internal/engine"
	"github.com/qoslab/amf/internal/ingest"
	"github.com/qoslab/amf/internal/stream"
)

// CheckObservations is what every write door, and the gateway before it
// splits a batch by shard, holds a batch to: each observation names a
// user and a service, and its value is finite and non-negative (a NaN or
// ±Inf would turn its user's and service's factors NaN after one SGD
// step). The first offender refuses the whole batch.
func CheckObservations(obs []ingest.Observation) error {
	for i := range obs {
		o := &obs[i]
		if len(o.User) == 0 || len(o.Service) == 0 {
			return fmt.Errorf("observation %d: user and service are required", i)
		}
		if !(o.Value >= 0) || math.IsInf(o.Value, 1) {
			return fmt.Errorf("observation %d: invalid QoS value %g", i, o.Value)
		}
	}
	return nil
}

// errFollowerWrite refuses a write on a follower: it must go to the leader.
var errFollowerWrite = errors.New("follower: writes must go to the leader")

// observe is the one write path for observations, whichever door they
// came through — POST /api/v1/observe or the TCP stream (ObserveBatch).
// It refuses the batch on a follower, validates all of it before the
// first registration (a refused batch leaves no names behind, in the
// registries or the WAL), registers its names — each joining name's
// binding journaled under the registry's lock, ahead of the samples (see
// joinUser) — and commits the samples through the engine, on the
// caller's goroutine: it returns once they are applied, published and,
// with a durable journal, on stable storage. b is the caller's scratch.
func (s *Server) observe(obs []ingest.Observation, b *hotBuf) (ObserveResponse, engine.ObserveTiming, error) {
	var resp ObserveResponse
	if s.follower.Load() {
		return resp, engine.ObserveTiming{}, errFollowerWrite
	}
	if err := CheckObservations(obs); err != nil {
		return resp, engine.ObserveTiming{}, err
	}
	// A batch is usually one user's measurements: a user name is resolved
	// once per run of observations that carry it.
	users, services := b.users[:0], b.services[:0]
	for i := range obs {
		if i == 0 || !bytes.Equal(obs[i].User, obs[i-1].User) {
			users = append(users, obs[i].User)
		}
		services = append(services, obs[i].Service)
	}
	b.users, b.services = users, services
	now := s.now().Sub(s.base)
	s.churn.RLock()
	// One write lock per registry for the whole batch.
	b.uids, resp.NewUsers = s.users.RegisterAll(users, b.uids, s.joinUser)
	b.ids, resp.NewServices = s.services.RegisterAll(services, b.ids, s.joinService)
	samples := b.samples[:0]
	u := -1
	for i := range obs {
		o := &obs[i]
		if i == 0 || !bytes.Equal(o.User, obs[i-1].User) {
			u++
		}
		samples = append(samples, stream.Sample{
			Time: s.sampleTime(o.TimestampMs, now), User: b.uids[u], Service: b.ids[i], Value: o.Value,
		})
	}
	b.samples = samples
	// The engine also scores each value against the model's prior
	// prediction on its way in (engine.SetAccuracy).
	tm := s.eng.ObserveAllTraced(samples)
	s.churn.RUnlock()
	resp.Accepted = len(samples)
	s.metrics.observations.Add(int64(resp.Accepted))
	return resp, tm, nil
}

// ObserveBatch implements ingest.Sink: the TCP stream commits each batch
// it reads through the same path as POST /api/v1/observe, so when it
// returns the batch is as visible and as durable as an HTTP ack makes an
// observe — which is what the stream's PONG then promises.
func (s *Server) ObserveBatch(batch []ingest.Observation) error {
	b := hotBufPool.Get().(*hotBuf)
	defer b.release()
	_, _, err := s.observe(batch, b)
	return err
}
