// Onlineserver: the QoS prediction service of the paper's framework
// (Fig. 3), exercised end to end over HTTP. A prediction service is
// started in-process; simulated users continuously upload the QoS they
// observe; the service updates its AMF model online in the background;
// and an application asks it to rank candidate services for an
// adaptation decision.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"github.com/qoslab/amf/internal/client"
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/server"
)

func main() {
	// The environment users measure against.
	gen, err := dataset.New(dataset.Config{
		Users: 20, Services: 60, Slices: 8,
		Interval: dataset.DefaultConfig().Interval,
		Rank:     5, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The prediction service (normally `amfserver`; in-process here so
	// the example is self-contained and runs anywhere). The model is
	// wrapped in a serving engine: predictions read an immutable
	// published view without locking, while each observe batch and each
	// background replay tick takes the engine's lock, updates the model
	// and republishes the view before it returns — an uploaded
	// measurement is in the very next prediction.
	rmin, rmax := dataset.ResponseTime.Range()
	cfg := core.DefaultConfig(dataset.ResponseTime.DefaultAlpha(), rmin, rmax)
	cfg.Expiry = 0
	svc := server.New(core.MustNew(cfg))
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go svc.RunReplay(ctx, 5*time.Millisecond, 2000)

	c := client.New(ts.URL, nil)
	if err := c.Health(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("prediction service is up at", ts.URL)

	// Phase 1 - input handling: each user uploads the QoS it observed on
	// a third of the services (nobody has seen everything; that is the
	// point of collaborative prediction).
	dsCfg := gen.Config()
	var uploaded int
	for u := 0; u < dsCfg.Users; u++ {
		var obs []server.Observation
		for s := 0; s < dsCfg.Services; s++ {
			if (u+s)%3 != 0 {
				continue
			}
			obs = append(obs, server.Observation{
				User:    fmt.Sprintf("app-%02d", u),
				Service: fmt.Sprintf("ws-%02d", s),
				Value:   gen.Value(dataset.ResponseTime, u, s, 0),
			})
		}
		resp, err := c.Observe(ctx, obs)
		if err != nil {
			log.Fatal(err)
		}
		uploaded += resp.Accepted
	}
	fmt.Printf("users uploaded %d observations\n", uploaded)

	// Phase 2 - online updating happens in the background (RunReplay).
	time.Sleep(300 * time.Millisecond)
	stats, err := c.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service state: %d users, %d services, %d model updates\n",
		stats.Users, stats.Services, stats.Updates)

	// Phase 3 - QoS prediction: app-07 wants to replace a degraded
	// working service and asks the service to rank candidates it has
	// NEVER invoked itself.
	user := "app-07"
	candidates := []string{"ws-05", "ws-11", "ws-25", "ws-40", "ws-55"}
	preds, err := c.PredictBatch(ctx, user, candidates)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncandidate ranking for %s:\n", user)
	for _, p := range preds {
		if p.OK {
			fmt.Printf("  %-6s predicted RT %.3f s\n", p.Service, p.Value)
		} else {
			fmt.Printf("  %-6s (no prediction)\n", p.Service)
		}
	}
	best, val, ok, err := c.BestCandidate(ctx, user, candidates)
	if err != nil || !ok {
		log.Fatal("no candidate available: ", err)
	}
	fmt.Printf("\nadaptation decision: bind %s (predicted %.3f s)\n", best, val)

	// The serving engine's own accounting: how many samples were applied
	// and how many immutable views were published for the lock-free read
	// path.
	st := svc.Engine().Stats()
	fmt.Printf("\nengine: applied %d samples, replayed %d, published %d views (v%d)\n",
		st.Applied, st.Replayed, st.Published, st.Version)
}
