package server

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/qoslab/amf/internal/core"
)

// getSnapshot downloads the persisted state the way a backup client
// does: GET /api/v1/snapshot.
func getSnapshot(t *testing.T, s *Server) []byte {
	t.Helper()
	w := doReq(t, s, http.MethodGet, "/api/v1/snapshot", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("GET snapshot: %d: %s", w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

func TestSaveLoadStateRoundTrip(t *testing.T) {
	s1 := testServer(t)
	observeSome(t, s1)
	before := doReq(t, s1, http.MethodGet, "/api/v1/predict?user=u1&service=s2", nil)
	if before.Code != http.StatusOK {
		t.Fatalf("predict before save: %d", before.Code)
	}
	var orig PredictResponse
	if err := json.Unmarshal(before.Body.Bytes(), &orig); err != nil {
		t.Fatal(err)
	}

	data := getSnapshot(t, s1)

	// A fresh server restored from the state must give the same answers,
	// including the name-to-ID mapping.
	s2 := testServer(t)
	if err := s2.LoadState(data); err != nil {
		t.Fatal(err)
	}
	after := doReq(t, s2, http.MethodGet, "/api/v1/predict?user=u1&service=s2", nil)
	if after.Code != http.StatusOK {
		t.Fatalf("predict after restore: %d: %s", after.Code, after.Body.String())
	}
	var restored PredictResponse
	if err := json.Unmarshal(after.Body.Bytes(), &restored); err != nil {
		t.Fatal(err)
	}
	if restored.Value != orig.Value {
		t.Fatalf("restored prediction %g != original %g", restored.Value, orig.Value)
	}

	// New registrations after restore must not collide with restored IDs.
	w := doReq(t, s2, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "brand-new", Service: "s0", Value: 1},
	}})
	if w.Code != http.StatusOK {
		t.Fatalf("observe after restore: %d", w.Code)
	}
	var stats StatsResponse
	w = doReq(t, s2, http.MethodGet, "/api/v1/stats", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Users != 5 { // 4 restored + 1 new
		t.Fatalf("users after restore+observe = %d, want 5", stats.Users)
	}
}

func TestLoadStateRejectsGarbage(t *testing.T) {
	s := testServer(t)
	if err := s.LoadState([]byte("junk")); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestSnapshotHTTPEndpoints(t *testing.T) {
	s1 := testServer(t)
	observeSome(t, s1)
	get := doReq(t, s1, http.MethodGet, "/api/v1/snapshot", nil)
	if get.Code != http.StatusOK {
		t.Fatalf("GET snapshot: %d", get.Code)
	}
	if ct := get.Header().Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}

	s2 := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/api/v1/snapshot", bytes.NewReader(get.Body.Bytes()))
	w := httptest.NewRecorder()
	s2.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("POST snapshot: %d: %s", w.Code, w.Body.String())
	}
	if got := doReq(t, s2, http.MethodGet, "/api/v1/predict?user=u1&service=s1", nil); got.Code != http.StatusOK {
		t.Fatalf("predict after HTTP restore: %d", got.Code)
	}
}

// TestSnapshotRestoreRefusedWhenDurable: a durable server answers an
// upload with 409 and keeps serving what it had, because a restore is
// not journaled — its directory would recover without it, and a follower
// tailing the log would never see it.
func TestSnapshotRestoreRefusedWhenDurable(t *testing.T) {
	src := testServer(t)
	observeSome(t, src)
	blob := getSnapshot(t, src)

	dir := t.TempDir()
	s, mgr, _ := durableServer(t, dir)
	const predict = "/api/v1/predict?user=u1&service=s1"
	req := httptest.NewRequest(http.MethodPost, "/api/v1/snapshot", bytes.NewReader(blob))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusConflict || !strings.Contains(w.Body.String(), "not journaled") {
		t.Fatalf("restore into a durable server: %d %s, want 409", w.Code, w.Body.String())
	}
	if got := doReq(t, s, http.MethodGet, predict, nil); got.Code != http.StatusNotFound {
		t.Fatalf("predict after refused restore: %d %s, want 404", got.Code, got.Body.String())
	}
	s.Close()
	mgr.Close()

	// What the directory recovers is what the server served.
	s2, mgr2, _ := durableServer(t, dir)
	defer mgr2.Close()
	defer s2.Close()
	if got := doReq(t, s2, http.MethodGet, predict, nil); got.Code != http.StatusNotFound {
		t.Fatalf("predict after reopen: %d %s, want 404", got.Code, got.Body.String())
	}
}

// TestSnapshotETagRevalidates: the snapshot's ETag lets a backup client
// skip the download while the state is unchanged, and a write
// invalidates it.
func TestSnapshotETagRevalidates(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	fetch := func(etag string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/snapshot", nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w
	}
	first := fetch("")
	etag := first.Header().Get("ETag")
	if first.Code != http.StatusOK || first.Body.Len() == 0 || etag == "" {
		t.Fatalf("first fetch: %d, %d bytes, etag %q", first.Code, first.Body.Len(), etag)
	}
	// Unchanged state revalidates for free.
	if w := fetch(etag); w.Code != http.StatusNotModified || w.Body.Len() != 0 || w.Header().Get("ETag") != etag {
		t.Fatalf("revalidation: %d, %d bytes, etag %q", w.Code, w.Body.Len(), w.Header().Get("ETag"))
	}
	// A write invalidates the tag and the next fetch downloads again.
	if w := doReq(t, s, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "fresh", Service: "s0", Value: 1},
	}}); w.Code != http.StatusOK {
		t.Fatalf("observe: %d", w.Code)
	}
	if w := fetch(etag); w.Code != http.StatusOK || w.Body.Len() == 0 || w.Header().Get("ETag") == etag {
		t.Fatalf("post-write fetch: %d, %d bytes, etag %q", w.Code, w.Body.Len(), w.Header().Get("ETag"))
	}
}

func TestSnapshotHTTPRejectsGarbage(t *testing.T) {
	s := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/api/v1/snapshot", bytes.NewReader([]byte("nope")))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("garbage restore: %d", w.Code)
	}
}

// TestSnapshotHTTPRejectsPoisonedModel: an upload that decodes but
// carries a model no view could serve (one NaN factor) is a 400, and the
// model and registries that were serving keep serving, unchanged.
func TestSnapshotHTTPRejectsPoisonedModel(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	const predict = "/api/v1/predict?user=u1&service=s2"
	before := doReq(t, s, http.MethodGet, predict, nil)
	if before.Code != http.StatusOK {
		t.Fatalf("predict before upload: %d", before.Code)
	}

	// gob matches structs by field name, so these mirror core's
	// unexported snapshot types.
	type entityImage struct {
		ID      int
		Vec     []float64
		Err     float64
		Updates int
	}
	type modelImage struct {
		Config   core.Config
		Users    []entityImage
		Services []entityImage
		Updates  int64
	}
	data := getSnapshot(t, s)
	var st persistedState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		t.Fatal(err)
	}
	var model modelImage
	if err := gob.NewDecoder(bytes.NewReader(st.Model)).Decode(&model); err != nil {
		t.Fatal(err)
	}
	model.Services[0].Vec[0] = math.NaN()
	st.Users = st.Users[:1] // the registries must not be swapped in either
	var mbuf, sbuf bytes.Buffer
	if err := gob.NewEncoder(&mbuf).Encode(model); err != nil {
		t.Fatal(err)
	}
	st.Model = mbuf.Bytes()
	if err := gob.NewEncoder(&sbuf).Encode(st); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodPost, "/api/v1/snapshot", &sbuf)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "service") {
		t.Fatalf("poisoned restore: %d %s, want 400 naming the service", w.Code, w.Body.String())
	}
	after := doReq(t, s, http.MethodGet, predict, nil)
	if after.Code != http.StatusOK || after.Body.String() != before.Body.String() {
		t.Fatalf("predict after rejected upload: %d %s, before %s", after.Code, after.Body.String(), before.Body.String())
	}
	// u3 left the uploaded registry; it is still known here, and a
	// full-catalog rank still touches every service without a NaN.
	if got := doReq(t, s, http.MethodGet, "/api/v1/predict?user=u3&service=s0", nil); got.Code != http.StatusOK {
		t.Fatalf("predict u3 after rejected upload: %d %s", got.Code, got.Body.String())
	}
	if got := doReq(t, s, http.MethodPost, "/api/v1/rank", RankRequest{User: "u2", TopK: 3}); got.Code != http.StatusOK {
		t.Fatalf("rank after rejected upload: %d %s", got.Code, got.Body.String())
	}
}

func TestEngineRestoreSwapsModel(t *testing.T) {
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	trained := core.MustNew(cfg)
	s := New(trained)
	observeSome(t, s)
	snap, err := s.eng.View().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.eng.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := s.eng.Restore([]byte("bad")); err == nil {
		t.Fatal("bad restore should fail and keep the old model")
	}
	if s.eng.View().NumUsers() != 4 {
		t.Fatalf("model lost state after failed restore: %d users", s.eng.View().NumUsers())
	}
}
