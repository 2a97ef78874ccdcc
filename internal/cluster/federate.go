package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/qoslab/amf/internal/obs"
)

// This file is the metrics-federation half of the gateway's
// observability: GET /api/v1/cluster/metrics scrapes every replica's
// /metrics with the strict parser, re-exports the union with
// group/replica origin labels (obs.WriteFederated), and appends derived
// cluster gauges — replication lag in sequences and seconds, epoch and
// fenced state per replica — so one scrape sees the whole cluster.

// scrapeTimeout bounds one federation pass; replica scrapes run
// concurrently inside it.
const scrapeTimeout = 5 * time.Second

// derivedFamilies are the gauge families the gateway computes from probe
// state rather than re-exporting, each with its value for one replica
// (false: the replica has no sample in the family).
var derivedFamilies = []struct {
	name, help string
	value      func(sc *scrapedReplica) (string, bool)
}{
	{"amf_cluster_replication_lag_seqs",
		"WAL records a follower is behind its group leader (leader wal_seq - follower applied_seq, as of the last probe).",
		func(sc *scrapedReplica) (string, bool) {
			lead := sc.grp.leader.Load()
			if lead == nil || sc.rep == lead || sc.rep.role.Load() == 1 {
				return "", false
			}
			return strconv.FormatInt(max(int64(lead.walSeq.Load())-int64(sc.rep.appliedSeq.Load()), 0), 10), true
		}},
	{"amf_cluster_replication_lag_seconds",
		"How long a follower has continuously been behind its leader's WAL tail (0 when caught up).",
		func(sc *scrapedReplica) (string, bool) {
			secs := math.Float64frombits(sc.rep.lagSecs.Load())
			return strconv.FormatFloat(secs, 'g', -1, 64), sc.rep.role.Load() != 1
		}},
	{"amf_cluster_replica_epoch",
		"Durable directory claim epoch per replica (0 = non-durable).",
		func(sc *scrapedReplica) (string, bool) { return strconv.FormatUint(sc.rep.epoch.Load(), 10), true }},
	{"amf_cluster_replica_fenced",
		"1 when a replica lost its durable directory claim and no longer accepts writes.",
		func(sc *scrapedReplica) (string, bool) {
			if sc.rep.fenced.Load() {
				return "1", true
			}
			return "0", true
		}},
}

// scrapedReplica is one replica's parsed /metrics page (nil on scrape
// failure) plus its origin labels.
type scrapedReplica struct {
	grp *group
	rep *replica
	tm  *obs.TextMetrics
}

// handleClusterMetrics serves the federated cluster view. Scrape
// failures cost that replica's series (and bump
// amf_cluster_scrape_errors_total) but never fail the whole page — a
// half-blind scrape during an outage is exactly when federation earns
// its keep.
func (g *Gateway) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), scrapeTimeout)
	defer cancel()

	var scrapes []*scrapedReplica
	for _, grp := range g.groups {
		for _, rep := range grp.replicas {
			scrapes = append(scrapes, &scrapedReplica{grp: grp, rep: rep})
		}
	}
	var wg sync.WaitGroup
	for _, sc := range scrapes {
		wg.Add(1)
		go func(sc *scrapedReplica) {
			defer wg.Done()
			tm, err := g.scrapeReplica(ctx, sc.rep)
			if err != nil {
				g.scrapeErrors.Inc()
				g.log.Warn("federation scrape failed", "replica", sc.rep.url, "err", err)
				return
			}
			sc.tm = tm
		}(sc)
	}
	wg.Wait()

	var buf bytes.Buffer
	g.writeDerived(&buf, scrapes)

	// The gateway's own registry joins as a page like any replica's, so
	// families both sides export (amf_build_info) merge under one
	// HELP/TYPE instead of colliding.
	pages := make([]obs.FederatedPage, 0, len(scrapes)+1)
	if self, err := g.selfPage(); err == nil {
		pages = append(pages, obs.FederatedPage{
			Labels:  [][2]string{{"group", "gateway"}, {"replica", "gateway"}},
			Metrics: self,
		})
	}
	for _, sc := range scrapes {
		if sc.tm == nil {
			continue
		}
		pages = append(pages, obs.FederatedPage{
			Labels:  [][2]string{{"group", sc.grp.name}, {"replica", sc.rep.url}},
			Metrics: sc.tm,
		})
	}
	if err := obs.WriteFederated(&buf, pages); err != nil {
		g.writeError(w, http.StatusInternalServerError, "federate: %v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}

// scrapeReplica fetches and strictly parses one replica's /metrics.
func (g *Gateway) scrapeReplica(ctx context.Context, rep *replica) (*obs.TextMetrics, error) {
	resp, err := g.send(ctx, controlCall, http.MethodGet, rep.at("/metrics"), rep.span, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return obs.ParseMetrics(resp.Body)
}

// selfPage renders and re-parses the gateway's own registry.
func (g *Gateway) selfPage() (*obs.TextMetrics, error) {
	var buf bytes.Buffer
	if err := g.reg.WritePrometheus(&buf); err != nil {
		return nil, err
	}
	return obs.ParseMetrics(&buf)
}

// writeDerived emits the synthesized cluster gauges. Lag in sequences
// compares each follower's applied sequence (probe state) against its
// group leader's WAL tail; lag in seconds and epoch/fenced come from
// probe state too, so they survive scrape failures; checkpoint age is
// lifted from the scraped pages (the probe does not carry it).
func (g *Gateway) writeDerived(buf *bytes.Buffer, scrapes []*scrapedReplica) {
	for _, d := range derivedFamilies {
		fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s gauge\n", d.name, d.help, d.name)
		for _, sc := range scrapes {
			if v, ok := d.value(sc); ok {
				fmt.Fprintf(buf, "%s{group=%q,replica=%q} %s\n", d.name, sc.grp.name, sc.rep.url, v)
			}
		}
	}
}
