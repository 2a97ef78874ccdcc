package eval

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/stream"
)

// Fig14Options configures the scalability/churn experiment (paper
// Fig. 14): AMF is trained to convergence on a random 80% of users and
// services, then the remaining 20% join mid-run. The paper reports MRE
// over wall-clock time for (a) the incumbents and (b) the newcomers; the
// adaptive weights should let newcomers converge quickly while incumbents
// stay stable.
type Fig14Options struct {
	Dataset dataset.Config
	Attr    dataset.Attribute
	Density float64 // observation density for both phases
	// ExistingFrac is the fraction of users/services present initially.
	// Zero means the paper's 0.8.
	ExistingFrac float64
	Slice        int
	Seed         int64
	// PointsBefore/PointsAfter are the number of measurement points in
	// each phase; StepsPerPoint replay updates run between measurements.
	PointsBefore  int
	PointsAfter   int
	StepsPerPoint int
}

func (o Fig14Options) withDefaults() Fig14Options {
	if o.Density == 0 {
		o.Density = 0.30
	}
	if o.ExistingFrac == 0 {
		o.ExistingFrac = 0.8
	}
	if o.PointsBefore == 0 {
		o.PointsBefore = 10
	}
	if o.PointsAfter == 0 {
		o.PointsAfter = 10
	}
	if o.StepsPerPoint == 0 {
		o.StepsPerPoint = 5000
	}
	return o
}

// Fig14Point is one measurement of the churn experiment.
type Fig14Point struct {
	Steps       int     // cumulative replay steps at measurement time
	Seconds     float64 // wall-clock seconds since experiment start
	AfterJoin   bool    // whether the newcomers have joined yet
	ExistingMRE float64
	// NewMRE is the newcomers' MRE; valid only when AfterJoin is true.
	NewMRE float64
}

// Fig14Result is the full churn trajectory.
type Fig14Result struct {
	Attr     dataset.Attribute
	Points   []Fig14Point
	JoinStep int // cumulative step count at which the newcomers joined
}

// RunFig14 executes the churn experiment with the paper's adaptive
// weights enabled.
func RunFig14(opts Fig14Options) (*Fig14Result, error) {
	return runFig14Variant(opts, true)
}

// runFig14Variant is RunFig14 with the adaptive weights toggled — the
// churn-ablation hook (see RunChurnAblation).
func runFig14Variant(opts Fig14Options, adaptiveWeights bool) (*Fig14Result, error) {
	opts = opts.withDefaults()
	gen, err := dataset.New(opts.Dataset)
	if err != nil {
		return nil, err
	}
	cfg := opts.Dataset

	// Deterministic 80/20 partition of users and services.
	rng := rand.New(rand.NewSource(opts.Seed))
	users := rng.Perm(cfg.Users)
	services := rng.Perm(cfg.Services)
	ucut := int(float64(cfg.Users) * opts.ExistingFrac)
	scut := int(float64(cfg.Services) * opts.ExistingFrac)
	if ucut < 1 || ucut >= cfg.Users || scut < 1 || scut >= cfg.Services {
		return nil, fmt.Errorf("eval: fig14: ExistingFrac %g leaves an empty partition", opts.ExistingFrac)
	}
	exUsers, newUsers := users[:ucut], users[ucut:]
	exSvcs, newSvcs := services[:scut], services[scut:]

	existing, err := stream.SubsetSplit(gen, opts.Attr, opts.Slice, exUsers, exSvcs, opts.Density, opts.Seed+1)
	if err != nil {
		return nil, err
	}
	newcomers, err := newcomerSplit(gen, opts, exUsers, newUsers, exSvcs, newSvcs)
	if err != nil {
		return nil, err
	}

	rmin, rmax := opts.Attr.Range()
	amfCfg := core.DefaultConfig(opts.Attr.DefaultAlpha(), rmin, rmax)
	amfCfg.Seed = opts.Seed
	amfCfg.Expiry = 0 // single-slice experiment: nothing should expire
	amfCfg.AdaptiveWeights = adaptiveWeights
	model, err := core.New(amfCfg)
	if err != nil {
		return nil, err
	}

	res := &Fig14Result{Attr: opts.Attr}
	start := time.Now()
	steps := 0
	measure := func(afterJoin bool) {
		pred := func(u, s int) (float64, bool) {
			v, err := model.Predict(u, s)
			return v, err == nil
		}
		p := Fig14Point{
			Steps:       steps,
			Seconds:     time.Since(start).Seconds(),
			AfterJoin:   afterJoin,
			ExistingMRE: Compute(pred, existing.Test).MRE,
		}
		if afterJoin {
			p.NewMRE = Compute(pred, newcomers.Test).MRE
		}
		res.Points = append(res.Points, p)
	}

	model.ObserveAll(existing.Train)
	steps += len(existing.Train)
	for i := 0; i < opts.PointsBefore; i++ {
		steps += model.ReplaySteps(opts.StepsPerPoint)
		measure(false)
	}

	// Churn injection: the 20% newcomers join (Algorithm 1 lines 5-7
	// register them with error trackers seeded at 1). Measure once
	// immediately so the trajectory starts at the newcomers' worst point.
	model.ObserveAll(newcomers.Train)
	steps += len(newcomers.Train)
	res.JoinStep = steps
	measure(true)
	for i := 0; i < opts.PointsAfter; i++ {
		steps += model.ReplaySteps(opts.StepsPerPoint)
		measure(true)
	}
	return res, nil
}

// newcomerSplit samples the pairs that involve at least one newcomer
// (new user x any service, or existing user x new service) at the
// experiment density.
func newcomerSplit(gen *dataset.Generator, opts Fig14Options, exUsers, newUsers, exSvcs, newSvcs []int) (stream.Split, error) {
	allSvcs := append(append([]int{}, exSvcs...), newSvcs...)
	a, err := stream.SubsetSplit(gen, opts.Attr, opts.Slice, newUsers, allSvcs, opts.Density, opts.Seed+2)
	if err != nil {
		return stream.Split{}, err
	}
	b, err := stream.SubsetSplit(gen, opts.Attr, opts.Slice, exUsers, newSvcs, opts.Density, opts.Seed+3)
	if err != nil {
		return stream.Split{}, err
	}
	return stream.Split{
		Train: append(a.Train, b.Train...),
		Test:  append(a.Test, b.Test...),
	}, nil
}

// NewcomerConvergence summarizes the Fig. 14 claim: the newcomers' first
// and last post-join MRE, and the incumbents' worst post-join MRE drift
// relative to their last pre-join MRE. A successful run has firstNew >>
// lastNew and small drift.
func (r *Fig14Result) NewcomerConvergence() (firstNew, lastNew, incumbentDrift float64) {
	var preJoin float64
	havePre := false
	first := true
	for _, p := range r.Points {
		if !p.AfterJoin {
			preJoin = p.ExistingMRE
			havePre = true
			continue
		}
		if first {
			firstNew = p.NewMRE
			first = false
		}
		lastNew = p.NewMRE
		if havePre && preJoin > 0 {
			drift := (p.ExistingMRE - preJoin) / preJoin
			if drift > incumbentDrift {
				incumbentDrift = drift
			}
		}
	}
	return firstNew, lastNew, incumbentDrift
}
