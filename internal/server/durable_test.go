package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/store"
)

// quietLogger discards all structured log output; recovery tests churn
// through warnings (torn tails, crash replays) on purpose.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// durableServer builds a Server attached to a fresh store.Manager on dir.
// The background checkpointer is effectively disabled (1h cadence) so
// tests control checkpoint timing explicitly.
func durableServer(t *testing.T, dir string) (*Server, *store.Manager, store.RecoveryStats) {
	t.Helper()
	mgr, err := store.Open(dir, store.Options{
		CheckpointInterval: time.Hour,
		Logger:             quietLogger(),
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	svc := New(core.MustNew(cfg), WithLogger(quietLogger()))
	rs, err := svc.AttachDurable(mgr)
	if err != nil {
		t.Fatalf("AttachDurable: %v", err)
	}
	return svc, mgr, rs
}

// TestDurableCrashRecoveryProperty is the randomized crash-recovery
// property test: drive a durable server through a random mix of observe
// batches, entity deletions, and manual checkpoints; then "crash" (abandon
// the manager and server without any shutdown protocol), reopen the data
// directory with a fresh server, and assert that every acked observation
// is reflected — each surviving (user, service) pair predicts, each
// deleted entity stays deleted, and the recovered registries match the
// pre-crash directories exactly. Every acked write is on stable storage,
// so nothing may be lost.
func TestDurableCrashRecoveryProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			svc, _, _ := durableServer(t, dir)

			rng := rand.New(rand.NewSource(seed))
			type pair struct{ user, service string }
			acked := make(map[pair]bool) // pairs with at least one acked sample
			deletedUsers := make(map[string]bool)
			deletedServices := make(map[string]bool)
			name := func(prefix string, n int) string {
				return fmt.Sprintf("%s%d", prefix, rng.Intn(n))
			}

			const steps = 120
			for i := 0; i < steps; i++ {
				switch r := rng.Float64(); {
				case r < 0.75: // observe a small random batch
					var obs []Observation
					for j := 0; j < 1+rng.Intn(4); j++ {
						obs = append(obs, Observation{
							User:    name("u", 12),
							Service: name("s", 18),
							Value:   0.1 + 5*rng.Float64(),
						})
					}
					w := doReq(t, svc, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: obs})
					if w.Code != http.StatusOK {
						t.Fatalf("step %d: observe status %d: %s", i, w.Code, w.Body.String())
					}
					for _, o := range obs {
						acked[pair{o.User, o.Service}] = true
						delete(deletedUsers, o.User)
						delete(deletedServices, o.Service)
					}
				case r < 0.83: // delete a user (maybe unknown; both fine)
					u := name("u", 12)
					w := doReq(t, svc, http.MethodDelete, "/api/v1/users?name="+u, nil)
					if w.Code == http.StatusOK {
						deletedUsers[u] = true
					}
				case r < 0.91: // delete a service
					s := name("s", 18)
					w := doReq(t, svc, http.MethodDelete, "/api/v1/services?name="+s, nil)
					if w.Code == http.StatusOK {
						deletedServices[s] = true
					}
				default: // manual checkpoint mid-stream
					w := doReq(t, svc, http.MethodPost, "/api/v1/checkpoint", nil)
					if w.Code != http.StatusOK {
						t.Fatalf("step %d: checkpoint status %d: %s", i, w.Code, w.Body.String())
					}
				}
			}

			wantUsers := svc.users.List()
			wantServices := svc.services.List()

			// Crash: no engine close, no final checkpoint, no manager
			// close. Everything acked is already on disk.
			svc2, _, rs := durableServer(t, dir)
			defer svc2.Close()

			gotUsers := svc2.users.List()
			gotServices := svc2.services.List()
			if len(gotUsers) != len(wantUsers) {
				t.Fatalf("recovered %d users, want %d", len(gotUsers), len(wantUsers))
			}
			for i := range wantUsers {
				if gotUsers[i].ID != wantUsers[i].ID || gotUsers[i].Name != wantUsers[i].Name {
					t.Fatalf("user %d: recovered %d/%q, want %d/%q",
						i, gotUsers[i].ID, gotUsers[i].Name, wantUsers[i].ID, wantUsers[i].Name)
				}
			}
			if len(gotServices) != len(wantServices) {
				t.Fatalf("recovered %d services, want %d", len(gotServices), len(wantServices))
			}
			for i := range wantServices {
				if gotServices[i].ID != wantServices[i].ID || gotServices[i].Name != wantServices[i].Name {
					t.Fatalf("service %d: recovered %d/%q, want %d/%q",
						i, gotServices[i].ID, gotServices[i].Name, wantServices[i].ID, wantServices[i].Name)
				}
			}

			for p := range acked {
				wantOK := !deletedUsers[p.user] && !deletedServices[p.service]
				w := doReq(t, svc2, http.MethodGet,
					"/api/v1/predict?user="+p.user+"&service="+p.service, nil)
				if wantOK && w.Code != http.StatusOK {
					t.Errorf("acked pair (%s,%s): predict status %d after recovery: %s",
						p.user, p.service, w.Code, w.Body.String())
				}
				if !wantOK && w.Code == http.StatusOK {
					t.Errorf("deleted pair (%s,%s): predict unexpectedly OK after recovery",
						p.user, p.service)
				}
			}
			if rs.Entries == 0 && !rs.HaveCheckpoint {
				t.Fatal("recovery found neither a checkpoint nor WAL entries")
			}
		})
	}
}

// TestGroupAckedWriteLeavesNothingUnsynced: on a store opened with
// zero-value options, every record the server journals has a waiter — an
// observe's samples and the registrations of the names it adds, just
// ahead of them; a removal — so once any write is acked
// the commit index has reached the tail. That is why the WAL runs no
// flusher.
func TestGroupAckedWriteLeavesNothingUnsynced(t *testing.T) {
	mgr, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	svc := New(core.MustNew(core.DefaultConfig(-0.007, 0, 20)), WithLogger(quietLogger()))
	if _, err := svc.AttachDurable(mgr); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	wal := mgr.WAL()
	acked := func(what string, write func()) {
		t.Helper()
		before := wal.LastSeq()
		write()
		if wal.LastSeq() == before {
			t.Fatalf("%s journaled nothing", what)
		}
		if d, l := wal.DurableSeq(), wal.LastSeq(); d != l {
			t.Fatalf("after %s: DurableSeq %d, LastSeq %d; want the acked tail durable", what, d, l)
		}
	}
	acked("an observe adding names", func() {
		w := doReq(t, svc, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
			{User: "gu0", Service: "gs0", Value: 1}, {User: "gu0", Service: "gs1", Value: 2},
		}})
		if w.Code != http.StatusOK {
			t.Fatalf("observe: %d %s", w.Code, w.Body.String())
		}
	})
	acked("a one-sample observe", func() {
		if w := observeOne(t, svc, "gu1", "gs2", 1.5); w.Code != http.StatusOK {
			t.Fatalf("observe: %d %s", w.Code, w.Body.String())
		}
	})
	for _, path := range []string{"/api/v1/users?name=gu0", "/api/v1/services?name=gs2"} {
		acked("DELETE "+path, func() {
			if w := doReq(t, svc, http.MethodDelete, path, nil); w.Code != http.StatusOK {
				t.Fatalf("DELETE %s: %d %s", path, w.Code, w.Body.String())
			}
		})
	}
}

// TestDurableDoubleAttach pins the one-shot contract.
func TestDurableDoubleAttach(t *testing.T) {
	dir := t.TempDir()
	svc, mgr, _ := durableServer(t, dir)
	defer svc.Close()
	if _, err := svc.AttachDurable(mgr); err == nil {
		t.Fatal("second AttachDurable should fail")
	}
}

// TestObserveRejectedBatchLeavesNoTrace: a batch that fails validation at
// any element answers 400 without registering the names of the elements
// before it — not in the registries, not in the model, not in the WAL
// (where a registration record would survive recovery).
func TestObserveRejectedBatchLeavesNoTrace(t *testing.T) {
	svc, mgr, _ := durableServer(t, t.TempDir())
	defer svc.Close()
	observeSome(t, svc)

	state := func() string {
		return doReq(t, svc, http.MethodGet, "/api/v1/users", nil).Body.String() +
			doReq(t, svc, http.MethodGet, "/api/v1/services", nil).Body.String() +
			fmt.Sprint(svc.users.Len(), svc.services.Len(), svc.eng.Updates(), mgr.WAL().LastSeq(),
				svc.metrics.observations.Value())
	}
	before := state()
	for name, bad := range map[string]Observation{
		"negative value": {User: "u2", Service: "s2", Value: -1},
		"empty user":     {Service: "s2", Value: 1},
		"empty service":  {User: "u2", Value: 1},
	} {
		w := doReq(t, svc, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
			{User: "ghost", Service: "phantom", Value: 1}, bad,
		}})
		if w.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, w.Code)
		}
		if after := state(); after != before {
			t.Errorf("%s: rejected batch left side effects:\nbefore %s\nafter  %s", name, before, after)
		}
	}
	// An infinity that reached the model would poison every prediction
	// touching its user or service: a value past float64's range is
	// refused as a whole batch too. (JSON cannot spell a NaN.)
	for _, bad := range []string{"1e400", "-1e400", "-1"} {
		body := `{"observations":[{"user":"ghost","service":"phantom","value":` + bad + `}]}`
		if w := doReq(t, svc, http.MethodPost, "/api/v1/observe", json.RawMessage(body)); w.Code != http.StatusBadRequest {
			t.Errorf("value %s: status %d, want 400", bad, w.Code)
		}
		if after := state(); after != before {
			t.Errorf("value %s: rejected sample left side effects:\nbefore %s\nafter  %s", bad, before, after)
		}
	}
	if w := doReq(t, svc, http.MethodGet, "/api/v1/predict?user=u1&service=s2", nil); w.Code != http.StatusOK {
		t.Errorf("predict after rejected values: status %d: %s", w.Code, w.Body.String())
	}
}

// TestNameVisibleOnlyAfterJournaled: another request can resolve a joining name only once its binding is in the WAL. If it
// could resolve it earlier, the engine could journal that request's
// sample first, and a crash in between would leave factors under an ID no
// recovered name resolves to.
func TestNameVisibleOnlyAfterJournaled(t *testing.T) {
	svc, _, _ := durableServer(t, t.TempDir())
	defer svc.Close()
	var (
		mu      sync.Mutex
		events  []string
		readers sync.WaitGroup
	)
	record := func(e string) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}
	// watch wraps a door's append: before the binding is appended, another
	// goroutine starts resolving the name, and is given the time to
	// succeed if the registry lets it.
	watch := func(appendFn func(int, string), lookup func(string) (int, bool)) func(int, string) {
		return func(id int, name string) {
			resolved := make(chan struct{})
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					if _, ok := lookup(name); ok {
						record("resolved " + name)
						close(resolved)
						return
					}
					runtime.Gosched()
				}
			}()
			select {
			case <-resolved:
			case <-time.After(50 * time.Millisecond):
			}
			appendFn(id, name)
			record("appended " + name)
		}
	}
	svc.joinUser = watch(svc.joinUser, svc.users.Lookup)
	svc.joinService = watch(svc.joinService, svc.services.Lookup)

	if w := doReq(t, svc, http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: []Observation{
		{User: "http-u", Service: "http-s1", Value: 1}, {User: "http-u", Service: "http-s2", Value: 2},
	}}); w.Code != http.StatusOK {
		t.Fatalf("observe: status %d: %s", w.Code, w.Body.String())
	}
	if w := observeOne(t, svc, "one-u", "one-s", 1); w.Code != http.StatusOK {
		t.Fatalf("observe: status %d: %s", w.Code, w.Body.String())
	}
	readers.Wait()
	at := map[string]int{}
	for i, e := range events {
		at[e] = i
	}
	for _, name := range []string{"http-u", "http-s1", "http-s2", "one-u", "one-s"} {
		appended, ok1 := at["appended "+name]
		resolved, ok2 := at["resolved "+name]
		if !ok1 || !ok2 || resolved < appended {
			t.Errorf("%s: another goroutine resolved it before its registration was appended (events %q)", name, events)
		}
	}
}

// TestCheckpointEndpointWithoutStore pins the 501 contract.
func TestCheckpointEndpointWithoutStore(t *testing.T) {
	svc := testServer(t)
	defer svc.Close()
	w := doReq(t, svc, http.MethodPost, "/api/v1/checkpoint", nil)
	if w.Code != http.StatusNotImplemented {
		t.Fatalf("checkpoint without store: status %d, want 501", w.Code)
	}
}

// TestDurableMetrics scrapes /metrics with a durable store attached —
// after a crash recovery, so the recovery counter is live — and
// validates the whole page plus the new amf_wal_* / amf_checkpoint_* /
// amf_recovery_* families through the strict in-repo parser.
func TestDurableMetrics(t *testing.T) {
	dir := t.TempDir()
	svc, _, _ := durableServer(t, dir)
	observeSome(t, svc)
	// Crash (abandon) and recover so amf_recovery_replayed_total > 0.
	svc2, _, rs := durableServer(t, dir)
	defer svc2.Close()
	if rs.Samples == 0 {
		t.Fatal("recovery replayed no samples")
	}
	observeSome(t, svc2) // journal fresh records on the recovered WAL
	w := doReq(t, svc2, http.MethodPost, "/api/v1/checkpoint", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("checkpoint status %d: %s", w.Code, w.Body.String())
	}

	w = doReq(t, svc2, http.MethodGet, "/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	tm, err := obs.ParseMetrics(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, w.Body.String())
	}
	if err := tm.Validate(); err != nil {
		t.Fatalf("/metrics does not validate: %v\n%s", err, w.Body.String())
	}
	value := func(fam string) float64 {
		t.Helper()
		f, ok := tm.Families[fam]
		if !ok {
			t.Fatalf("metrics missing family %s", fam)
		}
		if len(f.Samples) == 0 {
			t.Fatalf("family %s has no samples", fam)
		}
		return f.Samples[0].Value
	}
	for _, fam := range []string{
		"amf_wal_fsync_seconds",
		"amf_wal_appends_total",
		"amf_wal_bytes_total",
		"amf_wal_errors_total",
		"amf_wal_torn_truncations_total",
		"amf_wal_segments",
		"amf_wal_group_commit_records",
		"amf_checkpoint_seconds",
		"amf_checkpoint_age_seconds",
		"amf_recovery_replayed_total",
		"amf_journal_errors_total",
	} {
		value(fam) // existence + sample presence
	}
	if v := value("amf_recovery_replayed_total"); v < float64(rs.Samples) {
		t.Errorf("amf_recovery_replayed_total = %v, want >= %d", v, rs.Samples)
	}
	if v, _ := tm.Value("amf_checkpoint_seconds_count", nil); v < 1 {
		t.Errorf("amf_checkpoint_seconds_count = %v, want >= 1", v)
	}
	if v := value("amf_wal_appends_total"); v < 1 {
		t.Errorf("amf_wal_appends_total = %v, want >= 1", v)
	}
}

// TestCrashChildHelper is not a test: it is the child half of the
// kill-restart integration tests below. Re-invoked via os.Args[0] with
// AMF_CRASH_CHILD=1, it runs a real durable server on a real TCP socket
// until the parent SIGKILLs it.
func TestCrashChildHelper(t *testing.T) {
	if os.Getenv("AMF_CRASH_CHILD") != "1" {
		t.Skip("crash-test child helper; run via TestDurableKillRestart")
	}
	mgr, err := store.Open(os.Getenv("AMF_CRASH_DIR"), store.Options{
		CheckpointInterval: time.Hour,
		Logger:             quietLogger(),
	})
	if err != nil {
		fmt.Printf("CHILD_ERR=%v\n", err)
		os.Exit(1)
	}
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	svc := New(core.MustNew(cfg), WithLogger(quietLogger()))
	if _, err := svc.AttachDurable(mgr); err != nil {
		fmt.Printf("CHILD_ERR=%v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Printf("CHILD_ERR=%v\n", err)
		os.Exit(1)
	}
	fmt.Printf("CHILD_ADDR=%s\n", ln.Addr())
	_ = http.Serve(ln, svc.Handler()) // runs until SIGKILL
}

// TestDurableKillRestart is the end-to-end crash test from the issue: a
// real child process serving HTTP on a durable data directory is killed
// with SIGKILL (no shutdown protocol of any kind),
// and the parent then recovers the directory in-process and verifies that
// every observation and delete the child acked with a 200 is reflected in
// the recovered model. An ack is sent only after the caller's covering
// fsync landed — the one it ran or the one it shared — so zero acked loss
// is the contract, kills between a buffered append and its fsync
// included.
func TestDurableKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	dir := t.TempDir()
	cmd, addr := startCrashChild(t, dir)

	// Drive acked observations over real HTTP. Every 200 is a durability
	// promise — for a departure as much as for a
	// sample: a user and a service are observed, then deleted between
	// other observes, and both acked deletes must survive the kill.
	client := &http.Client{Timeout: 5 * time.Second}
	observe := func(u, s string, v float64) bool {
		t.Helper()
		ok, err := postObserve(client, addr, u, s, v)
		if err != nil {
			t.Fatalf("observe (%s,%s): %v", u, s, err)
		}
		return ok
	}
	// idOf asks the child which model id a name is bound to.
	idOf := func(kind, name string) int {
		t.Helper()
		resp, err := client.Get("http://" + addr + "/api/v1/" + kind)
		if err != nil {
			t.Fatalf("list %s: %v", kind, err)
		}
		defer resp.Body.Close()
		var infos []EntityInfo
		if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
			t.Fatalf("list %s: %v", kind, err)
		}
		for _, in := range infos {
			if in.Name == name {
				return in.ID
			}
		}
		t.Fatalf("%s %q not listed by the child", kind, name)
		return 0
	}
	remove := func(kind, name string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, "http://"+addr+"/api/v1/"+kind+"?name="+name, nil)
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("delete %s %s: %v", kind, name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delete %s %s: status %d", kind, name, resp.StatusCode)
		}
	}
	if !observe("gone-u", "ks0", 1) || !observe("ku0", "gone-s", 1) {
		t.Fatal("seeding the entities to delete was not acked")
	}
	goneUser, goneService := idOf("users", "gone-u"), idOf("services", "gone-s")
	type pair struct{ user, service string }
	var acked []pair
	for i := 0; i < 25; i++ {
		u := fmt.Sprintf("ku%d", i%5)
		s := fmt.Sprintf("ks%d", i%7)
		if observe(u, s, 0.5+float64(i%4)) {
			acked = append(acked, pair{u, s})
		}
		switch i {
		case 8:
			remove("users", "gone-u")
		case 16:
			remove("services", "gone-s")
		}
	}
	if len(acked) == 0 {
		t.Fatal("no observations were acked")
	}

	// SIGKILL: the child gets no chance to flush, checkpoint, or close.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill child: %v", err)
	}
	_, _ = cmd.Process.Wait()

	// Recover the directory in-process and verify zero acked loss.
	svc, _, rs := durableServer(t, dir)
	defer svc.Close()
	if rs.Samples < len(acked) {
		t.Errorf("recovered %d samples, want >= %d acked", rs.Samples, len(acked))
	}
	for _, p := range acked {
		w := doReq(t, svc, http.MethodGet,
			"/api/v1/predict?user="+p.user+"&service="+p.service, nil)
		if w.Code != http.StatusOK {
			t.Errorf("acked pair (%s,%s) lost after SIGKILL: predict status %d: %s",
				p.user, p.service, w.Code, w.Body.String())
		}
	}
	// Zero acked loss covers departures: neither name is registered,
	// neither id is in the served view.
	if _, ok := svc.users.Lookup("gone-u"); ok {
		t.Error("acked DELETE of user gone-u lost after SIGKILL: the name is registered")
	}
	if _, ok := svc.services.Lookup("gone-s"); ok {
		t.Error("acked DELETE of service gone-s lost after SIGKILL: the name is registered")
	}
	if v := svc.eng.View(); v.KnowsUser(goneUser) || v.KnowsService(goneService) {
		t.Errorf("acked DELETEs lost after SIGKILL: view knows user %d: %v, service %d: %v",
			goneUser, v.KnowsUser(goneUser), goneService, v.KnowsService(goneService))
	}
}

// startCrashChild re-invokes the test binary as TestCrashChildHelper on
// dir and returns the running child and the address it serves HTTP on.
// The child is killed when the test ends if the test has not killed it.
func startCrashChild(t *testing.T, dir string) (cmd *exec.Cmd, addr string) {
	t.Helper()
	cmd = exec.Command(os.Args[0], "-test.run", "^TestCrashChildHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "AMF_CRASH_CHILD=1", "AMF_CRASH_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	})

	// Wait for the child to report its listen address.
	scanner := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	addrCh := make(chan string, 1)
	go func() {
		for scanner.Scan() {
			line := scanner.Text()
			if a, ok := strings.CutPrefix(line, "CHILD_ADDR="); ok {
				addrCh <- a
				return
			}
			if e, ok := strings.CutPrefix(line, "CHILD_ERR="); ok {
				addrCh <- "ERR:" + e
				return
			}
		}
		addrCh <- "ERR:child exited without address"
	}()
	select {
	case a := <-addrCh:
		if strings.HasPrefix(a, "ERR:") {
			t.Fatalf("child failed: %s", a)
		}
		addr = a
	case <-deadline:
		t.Fatal("timed out waiting for child address")
	}
	return cmd, addr
}

// postObserve sends one single-sample observe to the child and reports
// whether it was acked with a 200.
func postObserve(client *http.Client, addr, u, s string, v float64) (bool, error) {
	body := fmt.Sprintf(`{"observations":[{"user":%q,"service":%q,"value":%g}]}`, u, s, v)
	resp, err := client.Post("http://"+addr+"/api/v1/observe", "application/json", strings.NewReader(body))
	if err != nil {
		return false, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK, nil
}

// TestDurableKillRestartGroupCommit is the SIGKILL crash test with
// concurrent writers: several clients observe at once, so most acks come
// from a waiter that found another caller's fsync in flight and waited on
// it rather than running its own. The child is killed while requests are
// still in flight — some appended but not yet covered by an fsync — and
// every observe acked before the kill must still be recovered: sharing
// the fsync must never weaken the zero-acked-loss contract.
func TestDurableKillRestartGroupCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	dir := t.TempDir()
	cmd, addr := startCrashChild(t, dir)

	type pair struct{ user, service string }
	const clients, killAfter = 4, 80
	var (
		mu     sync.Mutex
		acked  []pair
		wg     sync.WaitGroup
		enough = make(chan struct{})
		once   sync.Once
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; ; i++ {
				p := pair{fmt.Sprintf("gu%d", c), fmt.Sprintf("gs%d", i)}
				ok, err := postObserve(client, addr, p.user, p.service, 0.5+float64(i%4))
				if err != nil {
					return // the child is gone: nothing after this was acked
				}
				if !ok {
					continue
				}
				mu.Lock()
				acked = append(acked, p)
				if len(acked) >= killAfter {
					once.Do(func() { close(enough) })
				}
				mu.Unlock()
			}
		}(c)
	}
	select {
	case <-enough:
	case <-time.After(30 * time.Second):
		t.Error("timed out waiting for acked observations")
	}

	// SIGKILL with the writers still posting.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill child: %v", err)
	}
	_, _ = cmd.Process.Wait()
	wg.Wait()
	if len(acked) == 0 {
		t.Fatal("no observations were acked")
	}

	svc, _, rs := durableServer(t, dir)
	defer svc.Close()
	if rs.Samples < len(acked) {
		t.Errorf("recovered %d samples, want >= %d acked", rs.Samples, len(acked))
	}
	for _, p := range acked {
		w := doReq(t, svc, http.MethodGet,
			"/api/v1/predict?user="+p.user+"&service="+p.service, nil)
		if w.Code != http.StatusOK {
			t.Errorf("acked pair (%s,%s) lost after SIGKILL: predict status %d: %s",
				p.user, p.service, w.Code, w.Body.String())
		}
	}
}

// TestRestartKeepsReplay: model time is on the Unix epoch, not an offset
// from a server's start, so a restarted server reads the samples its
// predecessor journaled at their real age. A server whose clock stands
// 10 h past its start journals 20 samples and stops without a checkpoint;
// a fresh server on the same directory recovers them from the WAL,
// observes one fresh pair, and replay must move that pair's prediction.
// It would not if a recovered time put the replay pool's clock hours past
// the fresh sample, which would then expire on arrival: whether because
// the time was read as an offset from the new server's start, or because
// the old server's clock ran ahead of the new one's and recovery did not
// clamp it to now.
func TestRestartKeepsReplay(t *testing.T) {
	for _, tc := range []struct {
		name    string
		restart time.Duration // the second server's clock against the first's
	}{
		{"a minute later", time.Minute},
		{"on a clock 10 h behind", -10 * time.Hour},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			start := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
			now := start
			open := func() (*Server, *store.Manager) {
				t.Helper()
				mgr, err := store.Open(dir, store.Options{CheckpointInterval: time.Hour, Logger: quietLogger()})
				if err != nil {
					t.Fatalf("store.Open: %v", err)
				}
				cfg := core.DefaultConfig(-0.007, 0, 20)
				cfg.Expiry = 15 * time.Minute
				svc := NewWithClock(core.MustNew(cfg), func() time.Time { return now })
				svc.log = quietLogger()
				if _, err := svc.AttachDurable(mgr); err != nil {
					t.Fatalf("AttachDurable: %v", err)
				}
				return svc, mgr
			}
			first, mgr := open()
			now = start.Add(10 * time.Hour)
			observeSome(t, first)
			first.Close()
			if err := mgr.Close(); err != nil {
				t.Fatal(err)
			}

			now = now.Add(tc.restart)
			second, mgr := open()
			defer mgr.Close()
			defer second.Close()
			if w := observeOne(t, second, "fresh-user", "fresh-service", 1.2); w.Code != http.StatusOK {
				t.Fatalf("observe: status %d: %s", w.Code, w.Body.String())
			}
			predict := func() string {
				t.Helper()
				w := doReq(t, second, http.MethodGet, "/api/v1/predict?user=fresh-user&service=fresh-service", nil)
				if w.Code != http.StatusOK {
					t.Fatalf("predict: status %d: %s", w.Code, w.Body.String())
				}
				return w.Body.String()
			}
			before := predict()
			if n := second.Engine().ReplaySteps(500); n != 500 {
				t.Fatalf("replayed %d of 500 steps", n)
			}
			if after := predict(); after == before {
				t.Fatalf("replay left a fresh pair untouched (%s): a recovered sample's time put the pool clock past it", after)
			}
		})
	}
}
