package core

import (
	"testing"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

// rankedModel trains a model where service j's QoS for user 0 is
// approximately proportional to j+1, so the true ranking is known.
func rankedModel(t *testing.T) *Model {
	t.Helper()
	cfg := rtConfig()
	m := MustNew(cfg)
	for round := 0; round < 30; round++ {
		for u := 0; u < 4; u++ {
			for s := 0; s < 5; s++ {
				v := float64(s+1) * (1 + 0.1*float64(u))
				m.Observe(stream.Sample{Time: time.Duration(round), User: u, Service: s, Value: v})
			}
		}
	}
	m.Fit(FitOptions{MaxEpochs: 50})
	return m
}

func TestRankServicesAscending(t *testing.T) {
	m := rankedModel(t)
	ranked, unknown := m.RankServices(0, []int{4, 2, 0, 3, 1}, true)
	if len(unknown) != 0 {
		t.Fatalf("unexpected unknown candidates %v", unknown)
	}
	if len(ranked) != 5 {
		t.Fatalf("ranked %d candidates", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Value < ranked[i-1].Value {
			t.Fatalf("not ascending: %+v", ranked)
		}
	}
	// The learned best service should be service 0 (lowest RT).
	if ranked[0].Service != 0 {
		t.Fatalf("best service = %d, want 0 (ranking %+v)", ranked[0].Service, ranked)
	}
}

func TestRankServicesDescending(t *testing.T) {
	m := rankedModel(t)
	ranked, _ := m.RankServices(0, []int{0, 1, 2, 3, 4}, false)
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Value > ranked[i-1].Value {
			t.Fatalf("not descending: %+v", ranked)
		}
	}
	if ranked[0].Service != 4 {
		t.Fatalf("best throughput-style service = %d, want 4", ranked[0].Service)
	}
}

func TestRankServicesUnknown(t *testing.T) {
	m := rankedModel(t)
	ranked, unknown := m.RankServices(0, []int{1, 99, 2}, true)
	if len(ranked) != 2 || len(unknown) != 1 || unknown[0] != 99 {
		t.Fatalf("ranked=%v unknown=%v", ranked, unknown)
	}
	// Unknown user: everything lands in unknown.
	ranked, unknown = m.RankServices(99, []int{1, 2}, true)
	if len(ranked) != 0 || len(unknown) != 2 {
		t.Fatalf("unknown user: ranked=%v unknown=%v", ranked, unknown)
	}
}

func TestHighErrorEntitiesFlagNewcomers(t *testing.T) {
	m := rankedModel(t) // users 0-3 well trained
	// A brand-new user with a single noisy observation: its tracker is
	// still near the initialization value 1.
	m.Observe(stream.Sample{Time: time.Hour, User: 99, Service: 0, Value: 10})

	v := m.BuildView()
	flagged := v.HighErrorUsers(0.5)
	if len(flagged) == 0 {
		t.Fatal("the newcomer should be flagged")
	}
	if flagged[0].ID != 99 {
		t.Fatalf("worst-first ordering: got %+v", flagged)
	}
	for i := 1; i < len(flagged); i++ {
		if flagged[i].Error > flagged[i-1].Error {
			t.Fatalf("not sorted worst-first: %+v", flagged)
		}
	}
	// Converged users must not be flagged at a high threshold.
	for _, f := range v.HighErrorUsers(0.9) {
		if f.ID != 99 {
			t.Fatalf("converged user %d flagged at 0.9", f.ID)
		}
	}
	if got := v.HighErrorServices(10); len(got) != 0 {
		t.Fatalf("impossible threshold flagged %v", got)
	}
}
