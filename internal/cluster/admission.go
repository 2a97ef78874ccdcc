package cluster

import (
	"math"
	"net/http"

	"github.com/qoslab/amf/internal/server"
)

// This file is the gateway's slice of overload control: the
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

// edgeShed refuses a sheddable-class request whose target group reports
// saturation, writing the standard shed contract (429, Retry-After,
// X-Amf-Shed-Reason: edge_saturation). Returns true when the request was
// shed; callers return immediately then. Only the sheddable class is
// ever shed at the edge — standard and critical always reach the
// backend, whose own gate makes the finer-grained call. A batch touching
// several groups calls it once per group.
func (g *Gateway) edgeShed(w http.ResponseWriter, c call, grp *group) bool {
	if !g.cfg.EdgeShed || c.class != server.Sheddable {
		return false
	}
	rate := grp.maxShedRate()
	if rate < g.cfg.ShedThreshold {
		return false
	}
	c.span.Annotate("edge_shed", 1)
	c.span.SetError()
	g.edgeSheds.Inc()
	// One probe interval is the soonest the gateway's view of the group
	// can improve, so that is the honest retry hint (floor 1s).
	w.Header().Set("Retry-After", server.RetryAfter(g.cfg.ProbeInterval))
	w.Header().Set(server.ShedReasonHeader, edgeShedReason)
	g.writeError(w, http.StatusTooManyRequests,
		"overloaded: shard group %s is saturated (shed rate %.2f >= %.2f); sheddable request refused at the edge",
		grp.name, rate, g.cfg.ShedThreshold)
	return true
}

// unavailable writes the gateway's 503 for a request with nowhere to
// go: no routable shard group, or a write to a group with no live
// leader. Retry-After is part of the shed/unavailable contract: one
// probe interval is when routing state can next change.
func (g *Gateway) unavailable(w http.ResponseWriter, why string) {
	w.Header().Set("Retry-After", server.RetryAfter(g.cfg.ProbeInterval))
	g.writeError(w, http.StatusServiceUnavailable, "%s", why)
}
