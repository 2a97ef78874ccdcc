package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/qoslab/amf/internal/matrix"
)

// BiasedMFConfig tunes the bias-augmented matrix factorization extension.
type BiasedMFConfig struct {
	// Rank is the latent dimensionality. Zero means 10.
	Rank int
	// LearnRate is the per-sample SGD step. Zero means 0.05.
	LearnRate float64
	// Reg is the shared regularization. Zero means 0.002; negative is
	// rejected.
	Reg float64
	// MaxEpochs bounds training. Zero means 300.
	MaxEpochs int
	// Tol declares convergence on relative RMSE improvement. Zero means
	// 1e-4.
	Tol float64
	// RMax normalizes values into [0,1]; must be positive.
	RMax float64
	// Seed fixes initialization and the epoch shuffles.
	Seed int64
}

func (c BiasedMFConfig) withDefaults() BiasedMFConfig {
	if c.Rank == 0 {
		c.Rank = 10
	}
	if c.LearnRate == 0 {
		c.LearnRate = 0.05
	}
	if c.Reg == 0 {
		c.Reg = 0.002
	}
	if c.MaxEpochs == 0 {
		c.MaxEpochs = 300
	}
	if c.Tol == 0 {
		c.Tol = 1e-4
	}
	return c
}

// BiasedMF is the classic bias-augmented factorization (Koren et al.):
//
//	r̂_ij = μ + b_i + b_j + U_iᵀS_j
//
// trained by SGD on squared error. It is not part of the paper's Table I
// but is the natural "stronger PMF" an adopter would reach for, so the
// reproduction ships it as an extension baseline; AMF should still win
// the relative-error metrics against it (see the extended comparison).
type BiasedMF struct {
	cfg      BiasedMFConfig
	mu       float64
	userBias []float64
	itemBias []float64
	users    *matrix.Dense
	items    *matrix.Dense
	rmse     float64
}

// TrainBiasedMF factorizes a frozen sparse QoS matrix.
func TrainBiasedMF(m *matrix.Sparse, cfg BiasedMFConfig) (*BiasedMF, error) {
	cfg = cfg.withDefaults()
	switch {
	case cfg.Rank < 0:
		return nil, fmt.Errorf("baseline: BiasedMF rank must be positive, got %d", cfg.Rank)
	case cfg.Reg < 0:
		return nil, fmt.Errorf("baseline: BiasedMF reg must be non-negative, got %g", cfg.Reg)
	case cfg.LearnRate < 0:
		return nil, fmt.Errorf("baseline: BiasedMF learn rate must be positive, got %g", cfg.LearnRate)
	case cfg.RMax <= 0:
		return nil, fmt.Errorf("baseline: BiasedMF RMax must be positive, got %g", cfg.RMax)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n, cols, d := m.Rows(), m.Cols(), cfg.Rank
	b := &BiasedMF{
		cfg:      cfg,
		userBias: make([]float64, n),
		itemBias: make([]float64, cols),
		users:    matrix.NewDense(n, d),
		items:    matrix.NewDense(cols, d),
	}
	scale := 0.05
	b.users.Apply(func(float64) float64 { return rng.NormFloat64() * scale })
	b.items.Apply(func(float64) float64 { return rng.NormFloat64() * scale })

	entries := m.Entries()
	if len(entries) == 0 {
		return b, nil
	}
	var sum float64
	for _, e := range entries {
		sum += e.Val / cfg.RMax
	}
	b.mu = sum / float64(len(entries))

	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	prev := math.Inf(1)
	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		rng.Shuffle(len(order), func(a, c int) { order[a], order[c] = order[c], order[a] })
		var sqErr float64
		for _, idx := range order {
			e := entries[idx]
			r := e.Val / cfg.RMax
			ui := b.users.Row(e.Row)
			sj := b.items.Row(e.Col)
			pred := b.mu + b.userBias[e.Row] + b.itemBias[e.Col] + matrix.Dot(ui, sj)
			diff := pred - r
			sqErr += diff * diff
			b.userBias[e.Row] -= cfg.LearnRate * (diff + cfg.Reg*b.userBias[e.Row])
			b.itemBias[e.Col] -= cfg.LearnRate * (diff + cfg.Reg*b.itemBias[e.Col])
			for k := 0; k < d; k++ {
				uk, sk := ui[k], sj[k]
				ui[k] = uk - cfg.LearnRate*(diff*sk+cfg.Reg*uk)
				sj[k] = sk - cfg.LearnRate*(diff*uk+cfg.Reg*sk)
			}
		}
		b.rmse = math.Sqrt(sqErr / float64(len(entries)))
		if prev < math.Inf(1) && prev > 0 && math.Abs(prev-b.rmse)/prev < cfg.Tol {
			break
		}
		prev = b.rmse
	}
	return b, nil
}

// Name implements Predictor.
func (b *BiasedMF) Name() string { return "BiasedMF" }

// Predict returns μ + b_i + b_j + U_iᵀS_j in QoS units, capped at RMax
// (raw on the low side, as with the PMF baseline).
func (b *BiasedMF) Predict(user, service int) (float64, bool) {
	if user < 0 || user >= b.users.Rows() || service < 0 || service >= b.items.Rows() {
		return 0, false
	}
	v := (b.mu + b.userBias[user] + b.itemBias[service] +
		matrix.Dot(b.users.Row(user), b.items.Row(service))) * b.cfg.RMax
	if v > b.cfg.RMax {
		v = b.cfg.RMax
	}
	return v, true
}
