package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

func trainedModel(t *testing.T) *Model {
	t.Helper()
	m := MustNew(rtConfig())
	for i := 0; i < 60; i++ {
		m.Observe(stream.Sample{Time: time.Duration(i), User: i % 6, Service: i % 8, Value: 0.5 + float64(i%7)})
	}
	m.Fit(FitOptions{MaxEpochs: 10, Tol: 1e-9, MinEpochs: 10})
	return m
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := trainedModel(t)
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumUsers() != m.NumUsers() || r.NumServices() != m.NumServices() {
		t.Fatalf("restored counts %d/%d, want %d/%d", r.NumUsers(), r.NumServices(), m.NumUsers(), m.NumServices())
	}
	if r.Updates() != m.Updates() {
		t.Fatalf("restored updates %d, want %d", r.Updates(), m.Updates())
	}
	for u := 0; u < 6; u++ {
		for s := 0; s < 8; s++ {
			v1, err1 := m.Predict(u, s)
			v2, err2 := r.Predict(u, s)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if v1 != v2 {
				t.Fatalf("restored prediction differs at (%d,%d): %g vs %g", u, s, v1, v2)
			}
		}
	}
	// Error trackers must survive exactly.
	for u := 0; u < 6; u++ {
		e1, _ := m.users.Get(u)
		e2, _ := r.users.Get(u)
		if e1.err.Value() != e2.err.Value() {
			t.Fatalf("restored user error differs: %g vs %g", e1.err.Value(), e2.err.Value())
		}
	}
}

func TestRestoredModelKeepsLearning(t *testing.T) {
	m := trainedModel(t)
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.pool.Len() != 0 {
		t.Fatalf("restored pool should be empty, len=%d", r.pool.Len())
	}
	before := r.Updates()
	r.Observe(stream.Sample{Time: time.Hour, User: 0, Service: 0, Value: 2})
	if r.Updates() != before+1 {
		t.Fatal("restored model should accept new observations")
	}
	// New entities should also work post-restore.
	r.Observe(stream.Sample{Time: time.Hour, User: 1000, Service: 1000, Value: 3})
	if !r.KnowsUser(1000) || !r.KnowsService(1000) {
		t.Fatal("restored model should register new entities")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore([]byte("not a gob stream")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := Restore(nil); err == nil {
		t.Fatal("expected decode error on empty input")
	}
}

// TestRestoreValidatesEntities: a snapshot is outside input (the POST
// endpoint, a checkpoint file, a leader's bootstrap), and gob checks types
// only. Everything below decodes; each used to restore into a model that
// answered NaN — or silently padded, truncated or dropped an entity —
// until the next restore.
func TestRestoreValidatesEntities(t *testing.T) {
	cfg := rtConfig()
	vec := func(edit func(v []float64)) []float64 {
		v := make([]float64, cfg.Rank)
		for i := range v {
			v[i] = 0.1 * float64(i+1)
		}
		if edit != nil {
			edit(v)
		}
		return v
	}
	good := func(id int) entitySnapshot { return entitySnapshot{ID: id, Vec: vec(nil), Err: 0.5, Updates: 3} }
	set := func(j int, x float64) []float64 { return vec(func(v []float64) { v[j] = x }) }
	for _, tc := range []struct {
		name    string
		edit    func(s *snapshot)
		wantErr string // empty: must restore
	}{
		{"valid", func(*snapshot) {}, ""},
		{"largest float32 factor, zero error", func(s *snapshot) {
			s.Users[0].Vec, s.Users[0].Err = set(2, -math.MaxFloat32), 0
		}, ""},
		{"short vector", func(s *snapshot) { s.Users[1].Vec = s.Users[1].Vec[:3] }, "user 1:"},
		{"long vector", func(s *snapshot) { s.Services[0].Vec = append(s.Services[0].Vec, 1) }, "service 10:"},
		{"no vector", func(s *snapshot) { s.Services[1].Vec = nil }, "service 11:"},
		{"NaN factor", func(s *snapshot) { s.Users[0].Vec = set(4, math.NaN()) }, "user 0: factor 4"},
		{"plus-Inf factor", func(s *snapshot) { s.Services[1].Vec = set(0, math.Inf(1)) }, "service 11: factor 0"},
		{"minus-Inf factor", func(s *snapshot) { s.Services[1].Vec = set(9, math.Inf(-1)) }, "service 11: factor 9"},
		{"factor past float32", func(s *snapshot) { s.Users[1].Vec = set(1, 2*math.MaxFloat32) }, "user 1: factor 1"},
		{"infinite error", func(s *snapshot) { s.Users[0].Err = math.Inf(1) }, "user 0:"},
		{"NaN error", func(s *snapshot) { s.Services[0].Err = math.NaN() }, "service 10:"},
		{"negative error", func(s *snapshot) { s.Services[0].Err = -0.25 }, "service 10:"},
		{"negative entity updates", func(s *snapshot) { s.Users[1].Updates = -1 }, "user 1:"},
		{"duplicate user", func(s *snapshot) { s.Users = append(s.Users, good(0)) }, "user 0:"},
		{"duplicate service", func(s *snapshot) { s.Services = append(s.Services, good(11)) }, "service 11:"},
		{"negative updates", func(s *snapshot) { s.Updates = -7 }, "negative update count"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap := snapshot{
				Config:   cfg,
				Users:    []entitySnapshot{good(0), good(1)},
				Services: []entitySnapshot{good(10), good(11)},
				Updates:  12,
			}
			tc.edit(&snap)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
				t.Fatal(err)
			}
			m, err := Restore(buf.Bytes())
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid snapshot refused: %v", err)
				}
				if p, err := m.BuildView().Predict(0, 10); err != nil || math.IsNaN(p) || math.IsInf(p, 0) {
					t.Fatalf("restored model serves %v (%v)", p, err)
				}
				return
			}
			if err == nil || m != nil {
				t.Fatalf("Restore accepted it (model %v, err %v)", m != nil, err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name %q", err, tc.wantErr)
			}
		})
	}
}

func TestSnapshotEmptyModel(t *testing.T) {
	m := MustNew(rtConfig())
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumUsers() != 0 || r.NumServices() != 0 {
		t.Fatal("restored empty model should be empty")
	}
}
