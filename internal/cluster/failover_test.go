package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/server"
	"github.com/qoslab/amf/internal/store"
)

// TestFailoverChildHelper is not a test: it is the leader half of the
// SIGKILL failover test below. Re-invoked via os.Args[0] with
// AMF_FAILOVER_CHILD=1, it runs a durable amfserver on a
// real TCP socket until the parent kills it.
func TestFailoverChildHelper(t *testing.T) {
	if os.Getenv("AMF_FAILOVER_CHILD") != "1" {
		t.Skip("failover-test child helper; run via TestClusterFailoverKillLeader")
	}
	mgr, err := store.Open(os.Getenv("AMF_FAILOVER_DIR"), store.Options{
		CheckpointInterval: time.Hour,
		Logger:             quietLogger(),
	})
	if err != nil {
		fmt.Printf("CHILD_ERR=%v\n", err)
		os.Exit(1)
	}
	cfg := core.DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	svc := server.New(core.MustNew(cfg), server.WithLogger(quietLogger()))
	if _, err := svc.AttachDurable(mgr); err != nil {
		fmt.Printf("CHILD_ERR=%v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Printf("CHILD_ERR=%v\n", err)
		os.Exit(1)
	}
	fmt.Printf("CHILD_ADDR=%s\n", ln.Addr().String())
	_ = http.Serve(ln, svc.Handler()) // runs until SIGKILL
}

// TestClusterFailoverKillLeader is the acceptance scenario, and the first
// executable "acked ⇒ recoverable" check: a gateway fronts one shard
// group of three replicas — a leader child process on shared storage
// and two in-process followers tailing its directory.
// The leader is SIGKILLed under an active observe stream; the gateway's
// probe loop must promote one follower, which recovers the leader's
// durable directory to its exact tail, re-point the other, and resume
// serving — with every observation the dead leader acked still
// predictable. Zero acked loss is the durability contract; failover
// must not weaken it. The follower left as a follower keeps tailing the
// same directory under the new leader, with no gap and no sequence
// applied twice.
func TestClusterFailoverKillLeader(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestFailoverChildHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "AMF_FAILOVER_CHILD=1", "AMF_FAILOVER_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("start child: %v", err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}()
	leaderURL := "http://" + waitChildAddr(t, stdout)

	followerURLs := make([]string, 2)
	for i := range followerURLs {
		cfg := core.DefaultConfig(-0.007, 0, 20)
		cfg.Expiry = 0
		fol := server.New(core.MustNew(cfg), server.WithLogger(quietLogger()))
		ts := httptest.NewServer(fol.Handler())
		t.Cleanup(ts.Close)
		t.Cleanup(func() { fol.Close() })
		if _, err := fol.StartFollower(server.FollowerConfig{
			Leader:     leaderURL,
			LeaderData: dir,
			StoreOptions: store.Options{
				CheckpointInterval: time.Hour,
				Logger:             quietLogger(),
			},
			WaitMS:        200,
			RetryInterval: 20 * time.Millisecond,
		}); err != nil {
			t.Fatalf("StartFollower %d: %v", i, err)
		}
		followerURLs[i] = ts.URL
	}

	gw, err := New(Config{
		Groups:        [][]string{{leaderURL, followerURLs[0], followerURLs[1]}},
		ProbeInterval: 50 * time.Millisecond,
		DownAfter:     2,
		Failover:      true,
		Logger:        quietLogger(),
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(gw.Close)
	gw.Start()
	gwTS := httptest.NewServer(gw.Handler())
	t.Cleanup(gwTS.Close)

	// Stream observations through the gateway; every 200 is an ack the
	// cluster must never lose. Kill the leader mid-stream, keep writing,
	// and require the stream to recover within the failover budget.
	client := &http.Client{Timeout: 5 * time.Second}
	type pair struct{ user, service string }
	var acked []pair
	observe := func(i int) bool {
		u, s := fmt.Sprintf("fu%d", i%7), fmt.Sprintf("fs%d", i%5)
		body := fmt.Sprintf(`{"observations":[{"user":%q,"service":%q,"value":%g}]}`,
			u, s, 0.5+float64(i%4))
		resp, err := client.Post(gwTS.URL+"/api/v1/observe", "application/json", strings.NewReader(body))
		if err != nil {
			return false
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return false
		}
		acked = append(acked, pair{u, s})
		return true
	}
	for i := 0; i < 30; i++ {
		if !observe(i) {
			t.Fatalf("observe %d failed before the kill", i)
		}
	}

	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill leader: %v", err)
	}
	_, _ = cmd.Process.Wait()

	// Keep the stream running through the outage. Failed writes are not
	// acked, so they carry no durability promise; what matters is that
	// the stream resumes and stays up.
	recoveredAt := -1
	for i := 30; i < 330; i++ {
		if observe(i) && recoveredAt < 0 {
			recoveredAt = i
		}
		time.Sleep(10 * time.Millisecond)
	}
	if recoveredAt < 0 {
		t.Fatal("writes never recovered after leader kill")
	}
	t.Logf("writes recovered after %d failed attempts; %d acked total", recoveredAt-30, len(acked))

	// The gateway must have promoted exactly one follower.
	if v := metricValue(t, gw, "amf_cluster_failovers_total"); v != 1 {
		t.Errorf("amf_cluster_failovers_total = %g, want 1", v)
	}
	promoted, other := followerURLs[0], followerURLs[1]
	if clusterRole(t, promoted) != "leader" {
		promoted, other = other, promoted
	}
	if role := clusterRole(t, promoted); role != "leader" {
		t.Fatalf("no follower was promoted (roles %q, %q)", clusterRole(t, followerURLs[0]), role)
	}
	if role := clusterRole(t, other); role != "follower" {
		t.Fatalf("second follower role %q, want follower", role)
	}

	// Zero acked loss: every pair acked — including those acked by the
	// dead leader — is predictable on the promoted leader.
	for _, p := range acked {
		if _, ok := followerHas(t, promoted, p.user, p.service); !ok {
			t.Errorf("acked pair (%s,%s) lost across failover", p.user, p.service)
		}
	}

	// The other follower was re-pointed at the promoted leader and reads
	// on from the same directory: it reaches the new leader's commit
	// index having applied every record exactly once — as many records
	// as its applied sequence (it started from an empty log), and no
	// checkpoint load, which is how it would have crossed a gap.
	deadline := time.Now().Add(10 * time.Second)
	for clusterLeader(t, other) != promoted {
		if time.Now().After(deadline) {
			t.Fatalf("follower still points at %q, want %q", clusterLeader(t, other), promoted)
		}
		time.Sleep(25 * time.Millisecond)
	}
	last := acked[len(acked)-1]
	for {
		_, has := followerHas(t, other, last.user, last.service)
		st := clusterStatus(t, other)
		if has && st.AppliedSeq == clusterStatus(t, promoted).WALSeq {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower at seq %d never reached the promoted leader's tail", st.AppliedSeq)
		}
		time.Sleep(25 * time.Millisecond)
	}
	applied := clusterStatus(t, other).AppliedSeq
	if n := serverMetric(t, other, "amf_replication_records_total"); n != float64(applied) {
		t.Errorf("follower applied %g records to reach seq %d, want exactly one per sequence", n, applied)
	}
	if n := serverMetric(t, other, "amf_replication_bootstraps_total"); n != 0 {
		t.Errorf("follower loaded %g checkpoint(s), want none (no gap to cross)", n)
	}
}

// serverMetric reads one unlabelled series from a server's /metrics.
func serverMetric(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var f float64
			if _, err := fmt.Sscanf(v, "%g", &f); err == nil {
				return f
			}
		}
	}
	t.Fatalf("metric %s not found on %s", name, url)
	return 0
}

// waitChildAddr scans the child's stdout for its listen address.
func waitChildAddr(t *testing.T, stdout io.Reader) string {
	t.Helper()
	addrCh := make(chan string, 1)
	go func() {
		scanner := bufio.NewScanner(stdout)
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
		return a
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for child address")
		return ""
	}
}

func clusterStatus(t *testing.T, url string) server.ClusterStatusResponse {
	t.Helper()
	resp, err := http.Get(url + "/api/v1/cluster/status")
	if err != nil {
		return server.ClusterStatusResponse{}
	}
	defer resp.Body.Close()
	var st server.ClusterStatusResponse
	_ = json.NewDecoder(resp.Body).Decode(&st)
	return st
}

func clusterRole(t *testing.T, url string) string   { return clusterStatus(t, url).Role }
func clusterLeader(t *testing.T, url string) string { return clusterStatus(t, url).Leader }
