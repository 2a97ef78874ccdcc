package eval

import (
	"fmt"
	"time"

	"github.com/qoslab/amf/internal/baseline"
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/dataset"
	"github.com/qoslab/amf/internal/matrix"
	"github.com/qoslab/amf/internal/stream"
)

// TrainContext is everything an approach may train from under the paper's
// protocol: the retained (training) entries both as a frozen sparse matrix
// (the batch view the offline baselines need) and as the randomized sample
// stream AMF consumes, plus shape and attribute metadata.
type TrainContext struct {
	Attr     dataset.Attribute
	Users    int
	Services int
	Matrix   *matrix.Sparse
	Samples  []stream.Sample
	Seed     int64
}

// NewTrainContext assembles a TrainContext from a density split.
func NewTrainContext(attr dataset.Attribute, users, services int, sp stream.Split, seed int64) TrainContext {
	m := matrix.NewSparse(users, services)
	for _, s := range sp.Train {
		m.Append(s.User, s.Service, s.Value)
	}
	m.Freeze()
	return TrainContext{
		Attr:     attr,
		Users:    users,
		Services: services,
		Matrix:   m,
		Samples:  sp.Train,
		Seed:     seed,
	}
}

// Approach is one trainable predictor in the comparison.
type Approach struct {
	Name  string
	Train func(ctx TrainContext) (PredictFunc, error)
}

// AMFOverrides adjusts the AMF configuration used by the harness, for the
// ablation variants (e.g. AMF(α=1)) and parameter sweeps.
type AMFOverrides struct {
	Alpha           *float64
	Rank            *int
	LearnRate       *float64
	Reg             *float64
	Beta            *float64
	AdaptiveWeights *bool
	RelativeLoss    *bool
}

func (o AMFOverrides) apply(cfg core.Config) core.Config {
	if o.Alpha != nil {
		cfg.Alpha = *o.Alpha
	}
	if o.Rank != nil {
		cfg.Rank = *o.Rank
	}
	if o.LearnRate != nil {
		cfg.LearnRate = *o.LearnRate
	}
	if o.Reg != nil {
		cfg.RegUser = *o.Reg
		cfg.RegService = *o.Reg
	}
	if o.Beta != nil {
		cfg.Beta = *o.Beta
	}
	if o.AdaptiveWeights != nil {
		cfg.AdaptiveWeights = *o.AdaptiveWeights
	}
	if o.RelativeLoss != nil {
		cfg.RelativeLoss = *o.RelativeLoss
	}
	return cfg
}

// amfConfig builds the paper's AMF configuration for an attribute
// (Sec. V-C: d=10, η=0.8, λ=0.001, β=0.3, attribute-specific α and range).
func amfConfig(attr dataset.Attribute, seed int64, ov AMFOverrides) core.Config {
	rmin, rmax := attr.Range()
	cfg := core.DefaultConfig(attr.DefaultAlpha(), rmin, rmax)
	cfg.Seed = seed
	// Table-I training happens within one slice, so expiry must span the
	// whole training pass; the online experiments override the clock
	// explicitly instead.
	cfg.Expiry = 0
	return ov.apply(cfg)
}

// warmFitOptions is the incremental convergence budget used when a model
// carries its factors into a new time slice (the online regime of
// Fig. 13): few epochs suffice.
var warmFitOptions = core.FitOptions{MaxEpochs: 60, Tol: 1e-3, MinEpochs: 2}

// ConvergeAMF trains a freshly-seeded AMF model to convergence with a
// two-stage learning-rate schedule: the paper's η=0.8 covers the distance
// from random initialization quickly, then η=0.3 shrinks SGD's stationary
// variance so the factors settle onto the loss minimum (the accuracy
// regime of Table I). The model is left at the annealed rate, which is
// what subsequent incremental slices should use.
func ConvergeAMF(m *core.Model) core.FitResult {
	first := m.Fit(core.FitOptions{MaxEpochs: 20, Tol: 1e-3, MinEpochs: 2})
	m.SetLearnRate(0.3)
	second := m.Fit(core.FitOptions{MaxEpochs: 80, Tol: 2e-4, MinEpochs: 30})
	return core.FitResult{
		Epochs:     first.Epochs + second.Epochs,
		Steps:      first.Steps + second.Steps,
		FinalError: second.FinalError,
		Converged:  second.Converged,
	}
}

// AMFApproach returns the AMF entry, optionally with overrides. The
// display name can carry the variant (e.g. "AMF(a=1)").
func AMFApproach(name string, ov AMFOverrides) Approach {
	return Approach{
		Name: name,
		Train: func(ctx TrainContext) (PredictFunc, error) {
			m, err := core.New(amfConfig(ctx.Attr, ctx.Seed, ov))
			if err != nil {
				return nil, fmt.Errorf("eval: AMF: %w", err)
			}
			m.ObserveAll(ctx.Samples)
			ConvergeAMF(m)
			return func(u, s int) (float64, bool) {
				v, err := m.Predict(u, s)
				return v, err == nil
			}, nil
		},
	}
}

// UPCCApproach returns the user-based CF entry of Table I.
func UPCCApproach() Approach {
	return Approach{
		Name: "UPCC",
		Train: func(ctx TrainContext) (PredictFunc, error) {
			return baseline.TrainUPCC(ctx.Matrix), nil
		},
	}
}

// IPCCApproach returns the item-based CF entry of Table I.
func IPCCApproach() Approach {
	return Approach{
		Name: "IPCC",
		Train: func(ctx TrainContext) (PredictFunc, error) {
			return baseline.TrainIPCC(ctx.Matrix), nil
		},
	}
}

// UIPCCApproach returns the hybrid CF entry of Table I.
func UIPCCApproach() Approach {
	return Approach{
		Name: "UIPCC",
		Train: func(ctx TrainContext) (PredictFunc, error) {
			return baseline.TrainUIPCC(ctx.Matrix), nil
		},
	}
}

// PMFApproach returns the matrix-factorization entry of Table I.
func PMFApproach() Approach {
	return Approach{
		Name: "PMF",
		Train: func(ctx TrainContext) (PredictFunc, error) {
			_, rmax := ctx.Attr.Range()
			p, err := baseline.TrainPMF(ctx.Matrix, rmax, ctx.Seed)
			if err != nil {
				return nil, fmt.Errorf("eval: PMF: %w", err)
			}
			return p, nil
		},
	}
}

// StandardApproaches returns Table I's comparison set in the paper's
// order: UPCC, IPCC, UIPCC, PMF, AMF.
func StandardApproaches() []Approach {
	return []Approach{
		UPCCApproach(),
		IPCCApproach(),
		UIPCCApproach(),
		PMFApproach(),
		AMFApproach("AMF", AMFOverrides{}),
	}
}

// TimedTrain trains an approach and reports the training (convergence)
// wall time, the quantity plotted in the paper's Fig. 13.
func TimedTrain(a Approach, ctx TrainContext) (PredictFunc, time.Duration, error) {
	start := time.Now()
	pred, err := a.Train(ctx)
	return pred, time.Since(start), err
}
