// Adaptation: the paper's end-to-end motivation. A fleet of service-based
// applications runs a three-task workflow against a simulated cloud;
// response times drift and spike over time. Four adaptation policies are
// compared under identical conditions: never adapt, adapt to a random
// candidate, adapt to the candidate AMF predicts best (the paper's
// proposal), and adapt with ground-truth knowledge (the oracle bound).
package main

import (
	"fmt"
	"log"

	"github.com/qoslab/amf/internal/adapt"
	"github.com/qoslab/amf/internal/dataset"
)

func main() {
	cfg := dataset.Config{
		Users: 30, Services: 120, Slices: 12,
		Interval: dataset.DefaultConfig().Interval,
		Rank:     6, Seed: 7,
	}
	res, err := adapt.RunSimulation(cfg, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulating %d users x %d slices; workflow of %d tasks, %d candidates each, SLA %.1f s\n\n",
		cfg.Users, cfg.Slices, len(res.Workflow), len(res.Workflow[0]), adapt.SLA)

	fmt.Printf("%-10s %14s %15s %13s\n", "strategy", "mean latency", "violation rate", "adaptations")
	var static, predicted adapt.StrategyResult
	for _, s := range res.Strategies {
		fmt.Printf("%-10s %13.3fs %15.3f %13d\n", s.Name, s.MeanLatency, s.ViolationRate, s.Adaptations)
		switch s.Name {
		case "static":
			static = s
		case "predicted":
			predicted = s
		}
	}
	if static.ViolationRate > 0 {
		fmt.Printf("\nAMF-driven adaptation removed %.0f%% of SLA violations relative to no adaptation\n",
			(1-predicted.ViolationRate/static.ViolationRate)*100)
	}
	fmt.Println("(the oracle row is the upper bound any predictor can reach)")
}
