package cluster

import (
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
// or deleting one and leaving its row, breaks `make ci`. It also holds
// every family to a reader (checkReaders).
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
	checkReaders(t, string(readme), runtime)
}

// checkReaders holds README.md's metric tables (those whose first column
// is "Family") to their "Read by" column: every row fills it; a row read
// by the runbook has each of its families named in the "Runbook"
// subsection; every test a cell names exists; and the runbook names no
// family that nothing exports.
func checkReaders(t *testing.T, readme string, runtime map[string]bool) {
	t.Helper()
	nameRE := regexp.MustCompile(`amf_[a-z0-9_]+`)
	lines := strings.Split(readme, "\n")
	runbook := map[string]bool{}
	for i, line := range lines {
		if line != "#### Runbook" {
			continue
		}
		for _, l := range lines[i+1:] {
			if strings.HasPrefix(l, "#") {
				break
			}
			for _, name := range nameRE.FindAllString(l, -1) {
				runbook[name] = true
			}
		}
	}
	if len(runbook) == 0 {
		t.Fatal(`README.md has no "#### Runbook" subsection naming amf_* families`)
	}
	if stale := namesNotIn(runbook, runtime); len(stale) > 0 {
		t.Errorf("README.md's runbook names metric families no registry exports:\n  %s", strings.Join(stale, "\n  "))
	}

	tests := definedTests(t)
	testRE := regexp.MustCompile(`\bTest[A-Z]\w*`)
	readBy := -1 // the current table's "Read by" column; -1 outside a metric table
	for i, line := range lines {
		cells := strings.Split(line, "|")
		if !strings.HasPrefix(line, "|") || len(cells) < 3 {
			readBy = -1
			continue
		}
		if i > 0 && !strings.HasPrefix(lines[i-1], "|") { // a header row
			readBy = -1
			if strings.TrimSpace(cells[1]) == "Family" {
				readBy = slices.IndexFunc(cells, func(c string) bool { return strings.TrimSpace(c) == "Read by" })
				if readBy < 0 {
					t.Errorf("README.md line %d: metric table without a \"Read by\" column", i+1)
				}
			}
			continue
		}
		if readBy < 0 || strings.HasPrefix(line, "|---") {
			continue
		}
		families := nameRE.FindAllString(cells[1], -1)
		cell := ""
		if readBy < len(cells) {
			cell = strings.TrimSpace(cells[readBy])
		}
		if cell == "" {
			t.Errorf("README.md line %d: %v has no reader (fill its \"Read by\" cell or delete the family)", i+1, families)
			continue
		}
		if strings.Contains(cell, "Runbook") {
			for _, name := range families {
				if !runbook[name] {
					t.Errorf("README.md line %d: %s is read by the runbook, which does not name it", i+1, name)
				}
			}
		}
		for _, name := range testRE.FindAllString(cell, -1) {
			if !tests[name] {
				t.Errorf("README.md line %d: %v is read by %s, which no test file defines", i+1, families, name)
			}
		}
	}
}

// definedTests returns the name of every test function in the module.
func definedTests(t *testing.T) map[string]bool {
	t.Helper()
	funcRE := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	names := map[string]bool{}
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range funcRE.FindAllStringSubmatch(string(src), -1) {
			names[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
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
