package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/qoslab/amf/internal/matrix"
)

// NIMFConfig tunes neighborhood-integrated matrix factorization.
type NIMFConfig struct {
	// Rank is the latent dimensionality. Zero means 10.
	Rank int
	// LearnRate is the per-sample SGD step. Zero means 0.05.
	LearnRate float64
	// Reg is the regularization strength. Zero means 0.001; negative is
	// rejected.
	Reg float64
	// Alpha in [0,1] balances the user's own factors against the
	// neighborhood consensus (1 = pure MF). Zero means the NIMF paper's
	// 0.4; pass a negative value to force exactly 0.
	Alpha float64
	// TopK bounds each user's neighborhood. Zero means 10.
	TopK int
	// MaxEpochs bounds training. Zero means 300.
	MaxEpochs int
	// Tol declares convergence on relative RMSE improvement. Zero means
	// 1e-4.
	Tol float64
	// RMax normalizes values into [0,1]; must be positive.
	RMax float64
	// Seed fixes initialization and shuffles.
	Seed int64
}

func (c NIMFConfig) withDefaults() NIMFConfig {
	if c.Rank == 0 {
		c.Rank = 10
	}
	if c.LearnRate == 0 {
		c.LearnRate = 0.05
	}
	if c.Reg == 0 {
		c.Reg = 0.001
	}
	if c.Alpha == 0 {
		c.Alpha = 0.4
	}
	if c.Alpha < 0 {
		c.Alpha = 0
	}
	if c.TopK == 0 {
		c.TopK = 10
	}
	if c.MaxEpochs == 0 {
		c.MaxEpochs = 300
	}
	if c.Tol == 0 {
		c.Tol = 1e-4
	}
	return c
}

// NIMF is neighborhood-integrated matrix factorization (Zheng, Ma, Lyu,
// King — IEEE TSC 2013, the paper's reference [23]): each user's
// prediction blends their own latent factors with their PCC
// neighborhood's,
//
//	r̂_ij = α·U_iᵀS_j + (1−α)·Σ_{k∈T(i)} w_ik·U_kᵀS_j
//
// where T(i) is the user's top-K positive-similarity neighborhood and
// w_ik the normalized similarities. Like PMF it trains offline by SGD on
// squared error, so it shares the retraining limitation AMF removes.
type NIMF struct {
	cfg       NIMFConfig
	users     *matrix.Dense
	items     *matrix.Dense
	neighbors [][]neighbor // normalized, per user
	rmse      float64
}

// TrainNIMF factorizes a frozen sparse QoS matrix with neighborhood
// integration.
func TrainNIMF(m *matrix.Sparse, cfg NIMFConfig) (*NIMF, error) {
	cfg = cfg.withDefaults()
	switch {
	case cfg.Rank < 0:
		return nil, fmt.Errorf("baseline: NIMF rank must be positive, got %d", cfg.Rank)
	case cfg.Reg < 0:
		return nil, fmt.Errorf("baseline: NIMF reg must be non-negative, got %g", cfg.Reg)
	case cfg.LearnRate < 0:
		return nil, fmt.Errorf("baseline: NIMF learn rate must be positive, got %g", cfg.LearnRate)
	case cfg.RMax <= 0:
		return nil, fmt.Errorf("baseline: NIMF RMax must be positive, got %g", cfg.RMax)
	case cfg.Alpha > 1:
		return nil, fmt.Errorf("baseline: NIMF alpha must be in [0,1], got %g", cfg.Alpha)
	}

	// Top-K user neighborhoods with similarities normalized to sum 1.
	keys, vals := rowVectors(m)
	raw := topNeighbors(keys, vals, PCCConfig{TopK: cfg.TopK, MinCommon: 2, Significance: true})
	for _, ns := range raw {
		var sum float64
		for _, nb := range ns {
			sum += nb.sim
		}
		if sum > 0 {
			for i := range ns {
				ns[i].sim /= sum
			}
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	n, cols, d := m.Rows(), m.Cols(), cfg.Rank
	model := &NIMF{
		cfg:       cfg,
		users:     matrix.NewDense(n, d),
		items:     matrix.NewDense(cols, d),
		neighbors: raw,
	}
	scale := 0.1
	model.users.Apply(func(float64) float64 { return rng.NormFloat64() * scale })
	model.items.Apply(func(float64) float64 { return rng.NormFloat64() * scale })

	entries := m.Entries()
	if len(entries) == 0 {
		return model, nil
	}
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	blend := make([]float64, d)
	prev := math.Inf(1)
	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		var sqErr float64
		for _, idx := range order {
			e := entries[idx]
			r := e.Val / cfg.RMax
			ui := model.users.Row(e.Row)
			sj := model.items.Row(e.Col)
			// blend = α·U_i + (1−α)·Σ w_ik U_k — the effective user vector.
			for k := 0; k < d; k++ {
				blend[k] = cfg.Alpha * ui[k]
			}
			for _, nb := range model.neighbors[e.Row] {
				uk := model.users.Row(nb.id)
				w := (1 - cfg.Alpha) * nb.sim
				for k := 0; k < d; k++ {
					blend[k] += w * uk[k]
				}
			}
			diff := matrix.Dot(blend, sj) - r
			sqErr += diff * diff

			// Gradient steps: own factors, item factors, then neighbors.
			for k := 0; k < d; k++ {
				uk, sk, bk := ui[k], sj[k], blend[k]
				ui[k] = uk - cfg.LearnRate*(cfg.Alpha*diff*sk+cfg.Reg*uk)
				sj[k] = sk - cfg.LearnRate*(diff*bk+cfg.Reg*sk)
			}
			for _, nb := range model.neighbors[e.Row] {
				uk := model.users.Row(nb.id)
				w := (1 - cfg.Alpha) * nb.sim
				for k := 0; k < d; k++ {
					uk[k] -= cfg.LearnRate * w * diff * sj[k]
				}
			}
		}
		model.rmse = math.Sqrt(sqErr / float64(len(entries)))
		if prev < math.Inf(1) && prev > 0 && math.Abs(prev-model.rmse)/prev < cfg.Tol {
			break
		}
		prev = model.rmse
	}
	return model, nil
}

// Name implements Predictor.
func (p *NIMF) Name() string { return "NIMF" }

// Predict returns the blended estimate in QoS units, capped at RMax (raw
// on the low side, as with PMF).
func (p *NIMF) Predict(user, service int) (float64, bool) {
	if user < 0 || user >= p.users.Rows() || service < 0 || service >= p.items.Rows() {
		return 0, false
	}
	sj := p.items.Row(service)
	v := p.cfg.Alpha * matrix.Dot(p.users.Row(user), sj)
	for _, nb := range p.neighbors[user] {
		v += (1 - p.cfg.Alpha) * nb.sim * matrix.Dot(p.users.Row(nb.id), sj)
	}
	v *= p.cfg.RMax
	if v > p.cfg.RMax {
		v = p.cfg.RMax
	}
	return v, true
}
