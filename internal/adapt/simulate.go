package adapt

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/stream"
	"github.com/qoslab/amf/internal/workload"
)

// SimulationOptions configures the end-to-end adaptation experiment: many
// users run the same abstract workflow against the synthetic cloud, each
// adaptation strategy in its own pass over identical QoS conditions (the
// generator is deterministic, so every strategy faces the same world).
type SimulationOptions struct {
	Dataset dataset.Config
	// Users participating (must be <= Dataset.Users). Zero means all.
	Users int
	// Tasks and CandidatesPerTask shape the workflow. Zero means 3 tasks
	// with 8 candidates each.
	Tasks             int
	CandidatesPerTask int
	// SLA is the per-task response-time budget in seconds. Zero means 2.
	SLA float64
	// Slices to simulate (must be <= Dataset.Slices). Zero means all.
	Slices int
	// ReplayPerTick is how many AMF replay updates run after each user
	// tick in the predicted strategy. Zero means 20.
	ReplayPerTick int
	// MeanInvocationsPerSlice, when positive, draws each user's workflow
	// executions per slice from a Poisson arrival process with this mean
	// (see internal/workload) instead of exactly one execution. All
	// strategies see identical arrival counts.
	MeanInvocationsPerSlice float64
	Seed                    int64
}

func (o SimulationOptions) withDefaults() SimulationOptions {
	if o.Users <= 0 || o.Users > o.Dataset.Users {
		o.Users = o.Dataset.Users
	}
	if o.Tasks == 0 {
		o.Tasks = 3
	}
	if o.CandidatesPerTask == 0 {
		o.CandidatesPerTask = 8
	}
	if o.SLA == 0 {
		o.SLA = 2
	}
	if o.Slices <= 0 || o.Slices > o.Dataset.Slices {
		o.Slices = o.Dataset.Slices
	}
	if o.ReplayPerTick == 0 {
		o.ReplayPerTick = 20
	}
	return o
}

// StrategyResult aggregates one strategy's pass.
type StrategyResult struct {
	Name          string
	MeanLatency   float64 // mean end-to-end workflow latency, seconds
	ViolationRate float64 // SLA violations per task invocation
	Adaptations   int     // total binding replacements
	Invocations   int
}

// SimulationResult holds all strategies' results, in run order.
type SimulationResult struct {
	Workflow   Workflow
	Strategies []StrategyResult
}

// generatorEnv adapts the dataset generator to the Environment and
// ThroughputEnvironment interfaces.
type generatorEnv struct{ g *dataset.Generator }

func (e generatorEnv) InvokeRT(user, service, slice int) float64 {
	return e.g.Value(dataset.ResponseTime, user, service, slice)
}

func (e generatorEnv) InvokeTP(user, service, slice int) float64 {
	return e.g.Value(dataset.Throughput, user, service, slice)
}

// RunSimulation executes the adaptation experiment with four strategies:
// static (never adapt), random (adapt blindly), predicted (adapt to AMF's
// best candidate — the paper's proposal), and oracle (adapt to the true
// best candidate — the upper bound).
func RunSimulation(opts SimulationOptions) (*SimulationResult, error) {
	opts = opts.withDefaults()
	gen, err := dataset.New(opts.Dataset)
	if err != nil {
		return nil, err
	}
	wf, err := buildWorkflow(opts, gen.Config())
	if err != nil {
		return nil, err
	}
	res := &SimulationResult{Workflow: wf}

	// Pre-draw per-(slice, user) execution counts so every strategy runs
	// against the exact same workload.
	ticks := make([][]int, opts.Slices)
	tickRng := rand.New(rand.NewSource(opts.Seed + 23))
	for s := range ticks {
		ticks[s] = make([]int, opts.Users)
		for u := range ticks[s] {
			if opts.MeanInvocationsPerSlice > 0 {
				ticks[s][u] = workload.PoissonCount(tickRng, opts.MeanInvocationsPerSlice)
			} else {
				ticks[s][u] = 1
			}
		}
	}

	type pass struct {
		name     string
		selector func(model *core.Model) Selector
		useModel bool
	}
	passes := []pass{
		{name: "static", selector: func(*core.Model) Selector { return StaticSelector{} }},
		{name: "random", selector: func(*core.Model) Selector { return NewRandomSelector(opts.Seed + 11) }},
		{name: "predicted", useModel: true, selector: func(m *core.Model) Selector {
			return NewPredictedSelector(modelPredictor{m})
		}},
		{name: "oracle", selector: func(*core.Model) Selector {
			return NewOracleSelector(func(u, s int) float64 {
				return gen.PairMean(dataset.ResponseTime, u, s)
			})
		}},
	}

	for _, p := range passes {
		sr, err := runPass(opts, gen, wf, ticks, p.name, p.selector, p.useModel)
		if err != nil {
			return nil, err
		}
		res.Strategies = append(res.Strategies, sr)
	}
	return res, nil
}

// modelPredictor adapts core.Model to QoSPredictor.
type modelPredictor struct{ m *core.Model }

func (p modelPredictor) PredictRT(user, service int) (float64, bool) {
	v, err := p.m.Predict(user, service)
	return v, err == nil
}

func buildWorkflow(opts SimulationOptions, cfg dataset.Config) (Workflow, error) {
	need := opts.Tasks * opts.CandidatesPerTask
	if need > cfg.Services {
		return Workflow{}, fmt.Errorf("adapt: workflow needs %d candidate services, dataset has %d", need, cfg.Services)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	perm := rng.Perm(cfg.Services)
	wf := Workflow{Name: "simulated-app"}
	for t := 0; t < opts.Tasks; t++ {
		task := Task{Name: fmt.Sprintf("task-%d", t), SLA: opts.SLA}
		task.Candidates = append(task.Candidates, perm[t*opts.CandidatesPerTask:(t+1)*opts.CandidatesPerTask]...)
		wf.Tasks = append(wf.Tasks, task)
	}
	return wf, wf.Validate()
}

func runPass(opts SimulationOptions, gen *dataset.Generator, wf Workflow, ticks [][]int, name string,
	mkSelector func(*core.Model) Selector, useModel bool) (StrategyResult, error) {

	env := generatorEnv{gen}
	var model *core.Model
	var observer Observer
	if useModel {
		rmin, rmax := dataset.ResponseTime.Range()
		cfg := core.DefaultConfig(dataset.ResponseTime.DefaultAlpha(), rmin, rmax)
		cfg.Seed = opts.Seed
		cfg.Expiry = 4 * opts.Dataset.Interval
		m, err := core.New(cfg)
		if err != nil {
			return StrategyResult{}, err
		}
		model = m
		observer = func(s stream.Sample) { m.Observe(s) }
	}
	selector := mkSelector(model)

	// Every strategy starts from the same randomized initial bindings:
	// users are spread across candidates, which is also what seeds the
	// collaborative model with coverage of the candidate space.
	rng := rand.New(rand.NewSource(opts.Seed + 7))
	mws := make([]*Middleware, opts.Users)
	for u := range mws {
		mw, err := NewMiddleware(wf, u, selector, observer)
		if err != nil {
			return StrategyResult{}, err
		}
		b := mw.Bindings()
		for i, task := range wf.Tasks {
			b[i] = task.Candidates[rng.Intn(len(task.Candidates))]
		}
		if err := mw.Rebind(b); err != nil {
			return StrategyResult{}, err
		}
		mws[u] = mw
	}

	sr := StrategyResult{Name: name}
	var totalLatency float64
	var tickSeq, violations int
	for slice := 0; slice < opts.Slices; slice++ {
		now := gen.SliceTime(slice)
		if model != nil {
			model.AdvanceTo(now)
		}
		for u, mw := range mws {
			for rep := 0; rep < ticks[slice][u]; rep++ {
				tr := mw.Tick(env, slice, now+time.Duration(tickSeq)) // unique, increasing stamps
				totalLatency += tr.Latency
				violations += tr.Violations
				sr.Invocations += len(wf.Tasks)
				tickSeq++
				if model != nil {
					model.ReplaySteps(opts.ReplayPerTick)
				}
			}
		}
	}
	for _, mw := range mws {
		sr.Adaptations += mw.Adaptations()
	}
	if tickSeq > 0 {
		sr.MeanLatency = totalLatency / float64(tickSeq)
	}
	if sr.Invocations > 0 {
		sr.ViolationRate = float64(violations) / float64(sr.Invocations)
	}
	return sr, nil
}
