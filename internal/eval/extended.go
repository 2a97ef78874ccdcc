package eval

import (
	"fmt"

	"github.com/qoslab/amf/internal/baseline"
	"github.com/qoslab/amf/internal/core"
	"github.com/qoslab/amf/internal/transform"
)

// UMEANApproach returns the user-mean sanity-floor baseline.
func UMEANApproach() Approach {
	return Approach{
		Name: "UMEAN",
		Train: func(ctx TrainContext) (PredictFunc, error) {
			return baseline.TrainUMEAN(ctx.Matrix), nil
		},
	}
}

// IMEANApproach returns the service-mean sanity-floor baseline.
func IMEANApproach() Approach {
	return Approach{
		Name: "IMEAN",
		Train: func(ctx TrainContext) (PredictFunc, error) {
			return baseline.TrainIMEAN(ctx.Matrix), nil
		},
	}
}

// BiasedMFApproach returns the bias-augmented MF extension baseline
// (Koren-style biases on top of PMF; not in the paper's Table I but the
// natural stronger offline competitor).
func BiasedMFApproach() Approach {
	return Approach{
		Name: "BiasedMF",
		Train: func(ctx TrainContext) (PredictFunc, error) {
			_, rmax := ctx.Attr.Range()
			p, err := baseline.TrainBiasedMF(ctx.Matrix, rmax, ctx.Seed)
			if err != nil {
				return nil, fmt.Errorf("eval: BiasedMF: %w", err)
			}
			return p, nil
		},
	}
}

// NIMFApproach returns neighborhood-integrated MF (Zheng et al., TSC
// 2013 — the paper's reference [23]), the strongest published offline
// competitor at the time.
func NIMFApproach() Approach {
	return Approach{
		Name: "NIMF",
		Train: func(ctx TrainContext) (PredictFunc, error) {
			_, rmax := ctx.Attr.Range()
			p, err := baseline.TrainNIMF(ctx.Matrix, rmax, ctx.Seed)
			if err != nil {
				return nil, fmt.Errorf("eval: NIMF: %w", err)
			}
			return p, nil
		},
	}
}

// AMFAutoAlphaApproach is an extension beyond the paper: instead of the
// hand-tuned Box-Cox alpha (−0.007 for RT, −0.05 for TP), alpha is
// estimated from the training values by maximizing the Box-Cox profile
// log-likelihood. It demonstrates that the transformation can be tuned
// online from data, removing the one manually-set parameter AMF has.
func AMFAutoAlphaApproach() Approach {
	return Approach{
		Name: "AMF(auto)",
		Train: func(ctx TrainContext) (PredictFunc, error) {
			values := make([]float64, 0, len(ctx.Samples))
			for _, s := range ctx.Samples {
				values = append(values, s.Value)
			}
			alpha, err := transform.EstimateAlpha(values, -1, 1)
			if err != nil {
				return nil, fmt.Errorf("eval: estimate alpha: %w", err)
			}
			cfg := amfConfig(ctx.Attr, ctx.Seed, AMFOverrides{})
			cfg.Alpha = alpha
			m, err := core.New(cfg)
			if err != nil {
				return nil, fmt.Errorf("eval: AMF(auto): %w", err)
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

// ExtendedApproaches returns the full comparison set: the two mean
// floors, the paper's four baselines, the BiasedMF and NIMF extension
// baselines, the auto-alpha extension, and AMF.
func ExtendedApproaches() []Approach {
	return []Approach{
		UMEANApproach(),
		IMEANApproach(),
		UPCCApproach(),
		IPCCApproach(),
		UIPCCApproach(),
		PMFApproach(),
		BiasedMFApproach(),
		NIMFApproach(),
		AMFAutoAlphaApproach(),
		AMFApproach("AMF", AMFOverrides{}),
	}
}
