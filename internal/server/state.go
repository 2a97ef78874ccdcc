package server

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net/http"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/registry"
)

// persistedState is the on-disk image of a prediction service: the AMF
// model snapshot plus the user/service name⇄ID directories (the model
// alone is keyed by the IDs the registries assign, so both must travel
// together).
type persistedState struct {
	Model    []byte
	Users    []registry.Info
	Services []registry.Info
}

// encodeStateView streams the full service state for persistence across
// restarts (model factors + registries; the replay pool is transient and
// deliberately excluded) to w without materializing the gob image in
// memory first (the model snapshot itself is one buffer; the gob framing
// and registry lists stream). The model bytes come from a specific
// (immutable) published view, so saving state never blocks the update
// path, and passing the view explicitly is what lets a checkpoint capture
// the model state and its covered sequence number atomically (pair it
// with engine.CheckpointView): the view cannot gain post-capture samples,
// no matter how long serialization takes or what is written meanwhile.
func (s *Server) encodeStateView(w io.Writer, v *core.PredictView) error {
	model, err := v.Snapshot()
	if err != nil {
		return err
	}
	st := persistedState{
		Model:    model,
		Users:    s.users.List(),
		Services: s.services.List(),
	}
	if err := gob.NewEncoder(w).Encode(st); err != nil {
		return fmt.Errorf("server: encode state: %w", err)
	}
	return nil
}

// LoadState replaces the service's model and registries with a state
// produced by encodeStateView (a checkpoint, or GET /api/v1/snapshot).
// On error the service is left unchanged: both directories are validated
// into throwaway registries first, and restored only after the model
// is. The registries are restored in place — New assigns them once — so
// requests resolving names while a follower loads a checkpoint never
// race a field write.
func (s *Server) LoadState(data []byte) error {
	var st persistedState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("server: decode state: %w", err)
	}
	if err := registry.New().Restore(st.Users); err != nil {
		return err
	}
	if err := registry.New().Restore(st.Services); err != nil {
		return err
	}
	if err := s.eng.Restore(st.Model); err != nil {
		return err
	}
	if err := s.users.Restore(st.Users); err != nil {
		return err
	}
	return s.services.Restore(st.Services)
}

// resetState empties the model and both registries, in place: the
// starting point of a recovery that may replay a log from its first
// record.
func (s *Server) resetState() error {
	view := s.eng.Pin()
	blank, err := core.MustNew(view.Config()).Snapshot()
	s.eng.Unpin(view)
	if err != nil {
		return err
	}
	if err := s.eng.Restore(blank); err != nil {
		return err
	}
	if err := s.users.Restore(nil); err != nil {
		return err
	}
	return s.services.Restore(nil)
}

// stateRoutes registers the snapshot endpoints; called from routes().
func (s *Server) stateRoutes() {
	s.handle("GET /api/v1/snapshot", s.handleGetSnapshot)
	s.handle("POST /api/v1/snapshot", s.handlePostSnapshot)
}

// handleGetSnapshot streams the persisted state (operational backup)
// straight to the response — no full-image buffer per download. The ETag
// is the durable sequence number the snapshot covers (the WAL position
// when a store is attached, the view version otherwise), so a backup
// client can If-None-Match and skip the download when nothing changed.
func (s *Server) handleGetSnapshot(w http.ResponseWriter, r *http.Request) {
	var etag string
	var view *core.PredictView
	if s.durable.Load() != nil {
		// Seq and view come from one engine critical section
		// (CheckpointView), so the streamed blob covers exactly the
		// journaled records the tag names — a drain racing this handler
		// cannot leak post-seq samples into the download.
		seq, v := s.eng.CheckpointView()
		etag = fmt.Sprintf(`"seq-%d"`, seq)
		view = v
	} else {
		view = s.eng.View()
		etag = fmt.Sprintf(`"view-%d"`, view.Version())
	}
	if r.Header.Get("If-None-Match") == etag {
		s.countStatus(http.StatusNotModified)
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	s.countStatus(http.StatusOK)
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Disposition", `attachment; filename="amf-state.gob"`)
	h.Set("ETag", etag)
	if err := s.encodeStateView(w, view); err != nil {
		// Headers are gone; all we can do is cut the stream short (the
		// gob decoder on the other end will reject the truncation) and
		// log why.
		s.log.Warn("snapshot stream failed", "err", err)
	}
}

// handlePostSnapshot restores the service from an uploaded state. A
// durable server refuses with 409: a restore is not journaled, so its
// data directory would recover without it and followers tailing the log
// would never see it. A durable server's state moves as its directory.
func (s *Server) handlePostSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.rejectFollowerWrite(w) {
		return
	}
	if s.durable.Load() != nil {
		s.countError(w, http.StatusConflict,
			"restore: this server keeps its state in a data directory and a restore is not journaled; move the directory instead, or restore into a server without one")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		s.countError(w, http.StatusBadRequest, "read snapshot: %v", err)
		return
	}
	if err := s.LoadState(data); err != nil {
		s.countError(w, http.StatusBadRequest, "restore: %v", err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "restored"})
}
