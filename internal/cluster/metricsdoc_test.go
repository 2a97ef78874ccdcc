package cluster

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/engine"
	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/server"
	"github.com/qoslab/amf/internal/store"
)

// TestMetricsDocumented is the metrics-docs lint behind `make
// lint-metrics`: it scrapes /metrics of every process shape the project
// can build — a server with all optional subsystems attached (durable
// store, admission), a follower, the gateway — adds the
// federation-derived gauges, and fails if any amf_* family name is
// missing from README.md's metrics tables, or if a table row names a
// family none of them exports. Adding a metric without documenting it,
// or deleting one and leaving its row, breaks `make ci`.
func TestMetricsDocumented(t *testing.T) {
	runtime := map[string]bool{}
	collect := func(h http.Handler) {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		page, err := obs.ParseMetrics(w.Body)
		if err != nil {
			t.Fatalf("GET /metrics: HTTP %d: %v", w.Code, err)
		}
		for _, name := range page.Order {
			runtime[name] = true
		}
	}

	// Server with every optional subsystem lit: a durable store
	// (amf_wal_*, amf_checkpoint*, amf_recovery_*,
	// amf_journal_errors_total).
	dir := t.TempDir()
	mgr, err := store.Open(dir, store.Options{
		CheckpointInterval: time.Hour,
		Logger:             quietLogger(),
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer mgr.Close()
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	svc := server.NewWithEngine(
		engine.New(core.MustNew(cfg), engine.Config{}),
		server.WithLogger(quietLogger()))
	defer svc.Close()
	if _, err := svc.AttachDurable(mgr); err != nil {
		t.Fatalf("AttachDurable: %v", err)
	}
	// The SLO admission gate (amf_admission_*).
	svc.EnableAdmission(server.AdmissionConfig{})
	collect(svc.Handler())

	// A follower adds the replication families (amf_replication_*); it
	// reads a durable leader's directory.
	leaderDir := t.TempDir()
	leader, leaderMgr, _ := durableBackend(t, leaderDir)
	tsLeader := httptest.NewServer(leader.Handler())
	t.Cleanup(func() { leaderMgr.Close() })
	t.Cleanup(leader.Close)
	t.Cleanup(tsLeader.Close)
	folCfg := core.DefaultConfig(-0.007, 0, 20)
	folCfg.Expiry = 0
	follower := server.New(core.MustNew(folCfg), server.WithLogger(quietLogger()))
	defer follower.Close()
	if _, err := follower.StartFollower(server.FollowerConfig{
		Leader:        tsLeader.URL,
		LeaderData:    leaderDir,
		WaitMS:        100,
		RetryInterval: 20 * time.Millisecond,
	}); err != nil {
		t.Fatalf("StartFollower: %v", err)
	}
	collect(follower.Handler())

	// The gateway's registry plus the gauges GET /api/v1/cluster/metrics
	// synthesizes (they live on no registry).
	g := newGateway(t, [][]string{{tsLeader.URL}}, nil)
	collect(g.Handler())
	for _, d := range derivedFamilies {
		runtime[d.name] = true
	}

	// Documented names: every amf_* token inside a README table row.
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("read README.md: %v", err)
	}
	nameRE := regexp.MustCompile(`amf_[a-z0-9_]+`)
	documented := map[string]bool{}
	for _, line := range strings.Split(string(readme), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "|") {
			continue
		}
		for _, name := range nameRE.FindAllString(line, -1) {
			documented[name] = true
		}
	}
	if len(documented) == 0 {
		t.Fatal("found no amf_* names in README.md table rows — metrics tables missing?")
	}

	// Histogram families expose _bucket/_sum/_count series under the
	// family name; the table documents the family.
	if missing := namesNotIn(runtime, documented); len(missing) > 0 {
		t.Errorf("metric families missing from README.md's metrics tables (add a row per name):\n  %s",
			strings.Join(missing, "\n  "))
	}
	// The reverse: a table row naming a family no registry exports is
	// what deleting a metric leaves behind.
	if stale := namesNotIn(documented, runtime); len(stale) > 0 {
		t.Errorf("README.md table rows name metric families no registry exports (delete or fix the row):\n  %s",
			strings.Join(stale, "\n  "))
	}
}

// namesNotIn returns, sorted, the names that in lacks.
func namesNotIn(names, in map[string]bool) []string {
	var out []string
	for name := range names {
		if !in[name] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
