package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/qoslab/amf/internal/store"
)

// ingestThenDelete is the ghost's reproduction, one client and no
// concurrency: each name is observed through the async door and deleted
// straight after, so its sample is still queued when the removal arrives.
// A synchronous observe of what stays closes the script — under group
// commit its ack puts every record before it on disk — and the empty
// batch is the barrier for the queue.
func ingestThenDelete(t *testing.T, s *Server) {
	t.Helper()
	step := func(user, service, route, name string) {
		if err := s.Ingest(user, service, 1.5, 0); err != nil {
			t.Fatalf("Ingest(%s, %s): %v", user, service, err)
		}
		if w := doReq(t, s, http.MethodDelete, route+"?name="+name, nil); w.Code != http.StatusOK {
			t.Fatalf("DELETE %s %s: status %d: %s", route, name, w.Code, w.Body.String())
		}
	}
	for i := 0; i < 2000; i++ {
		name := fmt.Sprintf("svc-%d", i)
		step("u1", name, "/api/v1/services", name)
	}
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("user-%d", i)
		step(name, "keep-0", "/api/v1/users", name)
	}
	var keep []Observation
	for i := 0; i < 3; i++ {
		keep = append(keep, Observation{User: "u1", Service: fmt.Sprintf("keep-%d", i), Value: 1.5})
	}
	if w := doReq(t, s, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: keep}); w.Code != http.StatusOK {
		t.Fatalf("observe status %d: %s", w.Code, w.Body.String())
	}
	s.Engine().ObserveAll(nil)
}

// checkNoGhosts: the view knows exactly the entities the registries do,
// and a full-catalog ranking names every service it returns.
func checkNoGhosts(t *testing.T, s *Server, when string) {
	t.Helper()
	v := s.Engine().View()
	if v.NumServices() != s.services.Len() || v.NumUsers() != s.users.Len() {
		t.Fatalf("%s: the view knows %d services and %d users, the registries %d and %d",
			when, v.NumServices(), v.NumUsers(), s.services.Len(), s.users.Len())
	}
	w := doReq(t, s, http.MethodPost, "/api/v1/rank", RankRequest{User: "u1", TopK: 5})
	if w.Code != http.StatusOK {
		t.Fatalf("%s: rank all status %d: %s", when, w.Code, w.Body.String())
	}
	resp := decodeRank(t, w.Body.Bytes())
	if len(resp.Ranked) != s.services.Len() {
		t.Fatalf("%s: rank all returned %d services, want the %d registered", when, len(resp.Ranked), s.services.Len())
	}
	for _, r := range resp.Ranked {
		if r.Service == "#departed" {
			t.Fatalf("%s: rank all serves a departed service: %+v", when, resp.Ranked)
		}
	}
}

// TestDeleteOrderedAfterIngest: a removal is applied, and journaled, after
// every sample accepted before it. The other order lets Model.Observe
// re-create the entity under an id the registry has dropped and will
// never reissue; the ghost then takes a slot in every full-catalog
// ranking, and with the removal record ahead of the sample record in the
// WAL it survives a restart.
func TestDeleteOrderedAfterIngest(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		s := testServer(t)
		defer s.Close()
		ingestThenDelete(t, s)
		checkNoGhosts(t, s, "after the script")
	})
	t.Run("data-dir", func(t *testing.T) {
		dir := t.TempDir()
		s, _, _ := durableServer(t, dir, store.SyncGroup)
		defer s.Close()
		ingestThenDelete(t, s)
		checkNoGhosts(t, s, "before the restart")
		// Crash without shutdown, so recovery replays the WAL rather than
		// loading a final checkpoint.
		s2, _, rs := durableServer(t, dir, store.SyncGroup)
		defer s2.Close()
		if rs.Removals != 2200 {
			t.Fatalf("recovery replayed %d removal records, want 2200", rs.Removals)
		}
		checkNoGhosts(t, s2, "after recovery")
	})
}

// TestObserveDeleteRace: synchronous observes of one service name race a
// loop deleting it. Whatever the interleaving, once the name is deleted
// for good the view must not know a service the registry does not — an
// observe that resolved the name to the old id either reached the engine
// before the purge or registered a new id after it.
func TestObserveDeleteRace(t *testing.T) {
	s := testServer(t)
	defer s.Close()
	do := func(method, path, body string) int {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		return w.Code
	}
	var observers sync.WaitGroup
	for g := 0; g < 8; g++ {
		observers.Add(1)
		go func(g int) {
			defer observers.Done()
			body := fmt.Sprintf(`{"observations":[{"user":"u%d","service":"hot","value":1.5}]}`, g)
			for i := 0; i < 200; i++ {
				if code := do(http.MethodPost, "/api/v1/observe", body); code != http.StatusOK {
					t.Errorf("observe status %d", code)
					return
				}
			}
		}(g)
	}
	stop, deleter := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(deleter)
		for {
			select {
			case <-stop:
				return
			default:
				do(http.MethodDelete, "/api/v1/services?name=hot", "") // 404 between re-registrations
			}
		}
	}()
	observers.Wait()
	close(stop)
	<-deleter
	do(http.MethodDelete, "/api/v1/services?name=hot", "")
	s.Engine().ObserveAll(nil)
	if v := s.Engine().View(); s.services.Len() != 0 || v.NumServices() != 0 || v.NumUsers() != s.users.Len() {
		t.Fatalf("after the final delete the view knows %d services and %d users, the registries %d and %d",
			v.NumServices(), v.NumUsers(), s.services.Len(), s.users.Len())
	}
}
