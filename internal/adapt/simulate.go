// Package adapt simulates the runtime service adaptation of the paper's
// framework (Sec. III, Fig. 1 and Fig. 3): every user runs a workflow of
// abstract tasks, each bound to one of several functionally equivalent
// candidate services; each invocation is observed, and one over its SLA
// triggers an adaptation, which binds the candidate a strategy picks.
// RunSimulation scores four strategies against the synthetic cloud of
// internal/dataset.
package adapt

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/stream"
)

// The simulated workflow: tasks abstract tasks executed in sequence, each
// implemented by any one of its own candidates services.
const (
	tasks      = 3
	candidates = 8
)

// SLA is each task's response-time budget in seconds: an invocation above
// it is a violation and triggers an adaptation.
const SLA = 2.0

// replayPerTick is how many replay updates the predicted strategy's model
// runs after each workflow execution.
const replayPerTick = 20

// StrategyResult aggregates one strategy's pass.
type StrategyResult struct {
	Name          string
	MeanLatency   float64 // mean end-to-end workflow latency, seconds
	ViolationRate float64 // SLA violations per task invocation
	Adaptations   int     // total binding replacements
	Invocations   int
}

// SimulationResult holds the workflow and all strategies' results, in run
// order.
type SimulationResult struct {
	Workflow   [][]int // Workflow[t] lists task t's candidate services
	Strategies []StrategyResult
}

// pick is an adaptation strategy: the service user binds, among a task's
// candidates, once its current binding has violated the SLA. Returning
// current means "do not adapt".
type pick func(user int, candidates []int, current int) int

// RunSimulation executes the adaptation experiment: every user of ds runs
// the workflow once per slice under each of four strategies in turn —
// static (never adapt), random (adapt blindly), predicted (adapt to AMF's
// best candidate, the paper's proposal) and oracle (adapt to the true best
// candidate, the upper bound). The generator is deterministic, so every
// strategy faces the same world.
func RunSimulation(ds dataset.Config, seed int64) (*SimulationResult, error) {
	gen, err := dataset.New(ds)
	if err != nil {
		return nil, err
	}
	if need := tasks * candidates; need > ds.Services {
		return nil, fmt.Errorf("adapt: workflow needs %d candidate services, dataset has %d", need, ds.Services)
	}
	wf := workflow(ds.Services, seed)
	rmin, rmax := dataset.ResponseTime.Range()
	cfg := core.DefaultConfig(dataset.ResponseTime.DefaultAlpha(), rmin, rmax)
	cfg.Seed = seed
	cfg.Expiry = 4 * ds.Interval
	model, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	strategies := []struct {
		name  string
		pick  pick
		model *core.Model // learns from every invocation; nil for none
	}{
		{"static", staticPick, nil},
		{"random", randomPick(rand.New(rand.NewSource(seed + 11))), nil},
		{"predicted", predictedPick(model.Predict), model},
		{"oracle", oraclePick(func(user, service int) float64 {
			return gen.PairMean(dataset.ResponseTime, user, service)
		}), nil},
	}
	res := &SimulationResult{Workflow: wf}
	for _, s := range strategies {
		var observe func(stream.Sample)
		if s.model != nil {
			observe = s.model.Observe
		}
		sr := play(gen, wf, seed, s.pick, observe, s.model)
		sr.Name = s.name
		res.Strategies = append(res.Strategies, sr)
	}
	return res, nil
}

// workflow draws each task's candidates: a permutation of the services
// seeded with seed, taken candidates at a time.
func workflow(services int, seed int64) [][]int {
	perm := rand.New(rand.NewSource(seed)).Perm(services)
	wf := make([][]int, tasks)
	for t := range wf {
		wf[t] = perm[t*candidates : (t+1)*candidates : (t+1)*candidates]
	}
	return wf
}

// play runs one strategy over every slice of gen. Each user starts from
// bindings drawn with seed+7, the same for every strategy (users spread
// across candidates, which also gives a collaborative model coverage of
// the candidate space), and executes the workflow once per slice; a task
// whose invocation exceeds the SLA rebinds to what pick returns. observe,
// when non-nil, receives every invocation; model, when non-nil, is
// advanced to each slice's start and runs replayPerTick updates after
// each execution.
func play(gen *dataset.Generator, wf [][]int, seed int64, pick pick, observe func(stream.Sample), model *core.Model) StrategyResult {
	ds := gen.Config()
	rng := rand.New(rand.NewSource(seed + 7))
	bound := make([][]int, ds.Users) // bound[u][t]: user u's service for task t
	for u := range bound {
		bound[u] = make([]int, len(wf))
		for t, cands := range wf {
			bound[u][t] = cands[rng.Intn(len(cands))]
		}
	}

	var sr StrategyResult
	var totalLatency float64
	var execs, violations int
	for slice := 0; slice < ds.Slices; slice++ {
		now := gen.SliceTime(slice)
		if model != nil {
			model.AdvanceTo(now)
		}
		for u, b := range bound {
			stamp := now + time.Duration(execs) // unique, increasing stamps
			var latency float64
			for t, svc := range b {
				rt := gen.Value(dataset.ResponseTime, u, svc, slice)
				latency += rt
				if observe != nil {
					observe(stream.Sample{Time: stamp, User: u, Service: svc, Value: rt})
				}
				if rt > SLA {
					violations++
					if next := pick(u, wf[t], svc); next != svc {
						b[t] = next
						sr.Adaptations++
					}
				}
			}
			totalLatency += latency
			sr.Invocations += len(b)
			execs++
			if model != nil {
				model.ReplaySteps(replayPerTick)
			}
		}
	}
	sr.MeanLatency = totalLatency / float64(execs)
	sr.ViolationRate = float64(violations) / float64(sr.Invocations)
	return sr
}

// staticPick never adapts: the design-time binding stays forever, the
// no-adaptation baseline.
func staticPick(_ int, _ []int, current int) int { return current }

// randomPick replaces a degraded service with a uniformly random other
// candidate: adaptation without QoS prediction, the strawman for why
// candidate-side prediction matters.
func randomPick(rng *rand.Rand) pick {
	return func(_ int, candidates []int, current int) int {
		if len(candidates) == 1 {
			return candidates[0]
		}
		for {
			if c := candidates[rng.Intn(len(candidates))]; c != current {
				return c
			}
		}
	}
}

// predictedPick binds the candidate with the lowest predicted response
// time, the paper's use case for AMF. The current binding wins ties and
// candidates without a prediction are skipped, so a cold model keeps the
// current binding rather than thrashing.
func predictedPick(predict func(user, service int) (float64, error)) pick {
	return func(user int, candidates []int, current int) int {
		best := current
		bestRT, err := predict(user, current)
		haveBest := err == nil
		for _, c := range candidates {
			if c == current {
				continue
			}
			rt, err := predict(user, c)
			if err != nil {
				continue
			}
			if !haveBest || rt < bestRT {
				best, bestRT, haveBest = c, rt, true
			}
		}
		return best
	}
}

// oraclePick binds the candidate with the smallest true mean response
// time: an upper bound no predictor can beat.
func oraclePick(truth func(user, service int) float64) pick {
	return func(user int, candidates []int, current int) int {
		best, bestRT := current, truth(user, current)
		for _, c := range candidates {
			if rt := truth(user, c); rt < bestRT {
				best, bestRT = c, rt
			}
		}
		return best
	}
}
