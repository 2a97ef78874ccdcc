package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/qoslab/amf/internal/stats"
)

// snapshot is the gob-serializable image of a model's learned state. The
// replay pool is deliberately excluded: a restored model resumes from the
// learned factors and error trackers and refills its pool from new
// observations, which is what a restarted prediction service needs.
type snapshot struct {
	Config   Config
	Users    []entitySnapshot
	Services []entitySnapshot
	Updates  int64
}

type entitySnapshot struct {
	ID      int
	Vec     []float64
	Err     float64
	Updates int
}

// Snapshot serializes the model's learned state (configuration, latent
// factors, error trackers). See Restore.
func (m *Model) Snapshot() ([]byte, error) {
	snap := snapshot{Config: m.cfg, Updates: m.updates}
	snap.Users = entitiesToSnapshots(m.users)
	snap.Services = entitiesToSnapshots(m.services)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("core: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

func entitiesToSnapshots(t *entityTable) []entitySnapshot {
	out := make([]entitySnapshot, 0, t.Len())
	t.Each(func(id int, e *entity) {
		vec := make([]float64, len(e.vec))
		copy(vec, e.vec)
		out = append(out, entitySnapshot{ID: id, Vec: vec, Err: e.err.Value(), Updates: e.updates})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Restore reconstructs a model from a Snapshot. The restored model has an
// empty replay pool and the snapshot's configuration. The bytes may come
// from outside the process (POST /api/v1/snapshot, a checkpoint file, a
// leader's bootstrap), so every entity is checked before it can be
// served; on error no model is returned.
func Restore(data []byte) (*Model, error) {
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decode snapshot: %w", err)
	}
	m, err := New(snap.Config)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot has invalid config: %w", err)
	}
	if snap.Updates < 0 {
		return nil, fmt.Errorf("core: snapshot has negative update count %d", snap.Updates)
	}
	if err := restoreEntities(m, m.users, "user", snap.Users); err != nil {
		return nil, err
	}
	if err := restoreEntities(m, m.services, "service", snap.Services); err != nil {
		return nil, err
	}
	m.updates = snap.Updates
	return m, nil
}

// restoreEntities fills dst from src, refusing an id listed twice and
// any entity that fails check.
func restoreEntities(m *Model, dst *entityTable, kind string, src []entitySnapshot) error {
	for _, es := range src {
		err := es.check(m.cfg.Rank)
		if _, dup := dst.Get(es.ID); dup {
			err = errors.New("listed twice")
		}
		if err != nil {
			return fmt.Errorf("core: snapshot %s %d: %w", kind, es.ID, err)
		}
		dst.Put(es.ID, &entity{
			vec:     slices.Clone(es.Vec),
			err:     stats.NewEMAInit(m.cfg.Beta, es.Err),
			updates: es.Updates,
		})
	}
	return nil
}

// check refuses what gob accepts but the model cannot serve: a vector of
// the wrong length, a factor that is not finite or that a float32 page
// would publish as ±Inf, a tracked error that is not a finite
// non-negative number, a negative count.
func (es *entitySnapshot) check(rank int) error {
	if len(es.Vec) != rank {
		return fmt.Errorf("%d factors, rank is %d", len(es.Vec), rank)
	}
	for j, x := range es.Vec {
		if !(math.Abs(x) <= math.MaxFloat32) { // NaN and ±Inf included
			return fmt.Errorf("factor %d is %v", j, x)
		}
	}
	if !(es.Err >= 0) || math.IsInf(es.Err, 1) {
		return fmt.Errorf("tracked error is %v", es.Err)
	}
	if es.Updates < 0 {
		return fmt.Errorf("negative update count %d", es.Updates)
	}
	return nil
}
