package cluster

import (
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/qoslab/amf/internal/control"
	"github.com/qoslab/amf/internal/server"
)

// This file is the gateway's slice of the overload control plane: the
// SLO class header rides through the proxy to the backends (call and
// stamp in gateway.go), and — when edge shedding is enabled —
// sheddable-class requests aimed at a shard group that reports
// saturation are refused at the gateway, before they cost a backend
// round trip. Saturation is free
// information: every probe round already fetches each replica's
// /api/v1/cluster/status, which now carries the server's rolling shed
// rate, so the edge decision adds no extra traffic.

// edgeShedReason is the X-Amf-Shed-Reason value for gateway refusals.
const edgeShedReason = "edge_saturation"

// shedRate returns the replica's last-probed shed rate.
func (rep *replica) shedRateValue() float64 {
	return math.Float64frombits(rep.shedRate.Load())
}

// maxShedRate returns the highest shed rate any healthy replica of the
// group reported on the last probe round. The max (not the mean) is
// deliberate: writes concentrate on the leader, so one saturated
// replica is enough for the class of traffic that lands there.
func (grp *group) maxShedRate() float64 {
	rate := 0.0
	for _, rep := range grp.replicas {
		if rep.Health() == Down {
			continue
		}
		if r := rep.shedRateValue(); r > rate {
			rate = r
		}
	}
	return rate
}

// saturated reports whether the group's probed shed rate crossed the
// edge-shed threshold.
func (g *Gateway) saturated(grp *group) bool {
	return grp.maxShedRate() >= g.cfg.ShedThreshold
}

// edgeShed refuses a sheddable-class request whose target group(s)
// report saturation, writing the standard shed contract (429,
// Retry-After, X-Amf-Shed-Reason: edge_saturation). Returns true when
// the request was shed; callers return immediately then. Only the
// sheddable class is ever shed at the edge — standard and critical
// always reach the backend, whose own gate makes the finer-grained
// call with live queue state.
func (g *Gateway) edgeShed(w http.ResponseWriter, c call, grps ...*group) bool {
	if !g.cfg.EdgeShed {
		return false
	}
	if c.class != control.Sheddable {
		return false
	}
	for _, grp := range grps {
		if grp == nil || !g.saturated(grp) {
			continue
		}
		c.span.Annotate("edge_shed", 1)
		c.span.SetError()
		g.edgeSheds.Inc()
		// One probe interval is the soonest the gateway's view of the
		// group can improve, so that is the honest retry hint (floor 1s).
		w.Header().Set("Retry-After", retryAfterCeil(g.cfg.ProbeInterval))
		w.Header().Set(server.ShedReasonHeader, edgeShedReason)
		g.writeError(w, http.StatusTooManyRequests,
			"overloaded: shard group %s is saturated (shed rate %.2f >= %.2f); sheddable request refused at the edge",
			grp.name, grp.maxShedRate(), g.cfg.ShedThreshold)
		return true
	}
	return false
}

// unavailable writes the gateway's 503 for a request with no routable
// shard group. Retry-After is part of the shed/unavailable contract:
// one probe interval is when routing state can next change.
func (g *Gateway) unavailable(w http.ResponseWriter) {
	w.Header().Set("Retry-After", retryAfterCeil(g.cfg.ProbeInterval))
	g.writeError(w, http.StatusServiceUnavailable, "no shard groups available")
}

// retryAfterCeil renders a duration as a whole-second Retry-After
// value, minimum 1.
func retryAfterCeil(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
