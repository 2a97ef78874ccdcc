package baseline

import "github.com/qoslab/amf/internal/matrix"

// UIPCC hybridizes UPCC and IPCC with confidence weighting (Zheng et al.,
// IEEE TSC 2011): the two CF estimates are blended by weights derived from
// each neighborhood's confidence and a user-tunable parameter λ
// controlling the a-priori trust in the user-based view.
type UIPCC struct {
	u      *UPCC
	i      *IPCC
	lambda float64
}

// UIPCCConfig configures the hybrid.
type UIPCCConfig struct {
	User PCCConfig
	Item PCCConfig
	// Lambda in [0,1] is the a-priori weight of the user-based estimate.
	// The WSRec default of 0.1 reflects that service-side similarity is
	// usually more informative for QoS. Values outside [0,1] are clamped.
	Lambda float64
}

// TrainUIPCC builds the hybrid from a frozen sparse QoS matrix.
func TrainUIPCC(m *matrix.Sparse, cfg UIPCCConfig) *UIPCC {
	lambda := cfg.Lambda
	if lambda < 0 {
		lambda = 0
	}
	if lambda > 1 {
		lambda = 1
	}
	return &UIPCC{
		u:      TrainUPCC(m, cfg.User),
		i:      TrainIPCC(m, cfg.Item),
		lambda: lambda,
	}
}

// Name implements Predictor.
func (h *UIPCC) Name() string { return "UIPCC" }

// Predict blends the two CF estimates:
//
//	w_u = λ·con_u / (λ·con_u + (1−λ)·con_i),  w_i = 1 − w_u
//	r̂ = w_u·r̂_UPCC + w_i·r̂_IPCC
//
// degrading gracefully to whichever single estimate exists, then to the
// component fallbacks.
func (h *UIPCC) Predict(user, service int) (float64, bool) {
	uv, ucon, uok := h.u.PredictWithConfidence(user, service)
	iv, icon, iok := h.i.PredictWithConfidence(user, service)
	switch {
	case uok && iok:
		wu := h.lambda * ucon
		wi := (1 - h.lambda) * icon
		if wu+wi == 0 {
			// Both neighborhoods exist but carry zero confidence; fall
			// back to the a-priori blend.
			wu, wi = h.lambda, 1-h.lambda
		}
		return clampMin((wu*uv + wi*iv) / (wu + wi)), true
	case uok:
		return clampMin(uv), true
	case iok:
		return clampMin(iv), true
	default:
		// Neither CF estimate exists: delegate to UPCC's fallback chain
		// (user mean → global), then IPCC's (service mean → global).
		if v, ok := h.u.Predict(user, service); ok {
			return v, true
		}
		return h.i.Predict(user, service)
	}
}
