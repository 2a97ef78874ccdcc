package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/qoslab/amf/internal/matrix"
)

// PMFConfig tunes the probabilistic-matrix-factorization baseline.
type PMFConfig struct {
	// Rank is the latent dimensionality d. Zero means the default of 10
	// (matching the paper's AMF setting for a fair comparison).
	Rank int
	// LearnRate is the per-sample SGD step size. Zero means 0.05.
	LearnRate float64
	// Reg is the shared regularization λ. Zero means 0.001; negative is
	// rejected.
	Reg float64
	// MaxEpochs bounds training. Zero means 300.
	MaxEpochs int
	// Tol declares convergence when the relative improvement of the
	// training RMSE falls below it. Zero means 1e-4.
	Tol float64
	// RMax normalizes QoS values to [0,1] before factorization. It must
	// be positive (use the attribute's range maximum).
	RMax float64
	// ClampNonNegative floors predictions at 0. The paper's comparison
	// uses the raw inner product (negative predictions count against
	// PMF's relative errors), so the default is false; production users
	// may prefer physically meaningful non-negative estimates.
	ClampNonNegative bool
	// Seed fixes the latent initialization.
	Seed int64
}

func (c PMFConfig) withDefaults() PMFConfig {
	if c.Rank == 0 {
		c.Rank = 10
	}
	if c.LearnRate == 0 {
		c.LearnRate = 0.05
	}
	if c.Reg == 0 {
		c.Reg = 0.001
	}
	if c.MaxEpochs == 0 {
		c.MaxEpochs = 300
	}
	if c.Tol == 0 {
		c.Tol = 1e-4
	}
	return c
}

func (c PMFConfig) validate() error {
	switch {
	case c.Rank < 0:
		return fmt.Errorf("baseline: PMF rank must be positive, got %d", c.Rank)
	case c.LearnRate < 0:
		return fmt.Errorf("baseline: PMF learn rate must be positive, got %g", c.LearnRate)
	case c.Reg < 0:
		return fmt.Errorf("baseline: PMF reg must be non-negative, got %g", c.Reg)
	case c.RMax <= 0:
		return fmt.Errorf("baseline: PMF RMax must be positive, got %g", c.RMax)
	}
	return nil
}

// PMF is a trained probabilistic matrix factorization model. It minimizes
//
//	Σ_(i,j) I_ij (r_ij − U_iᵀS_j)² + λ(‖U‖²_F + ‖S‖²_F)
//
// by stochastic gradient descent over shuffled observed entries, on QoS
// values linearly normalized to [0,1] — i.e. it optimizes the *absolute*
// error that the paper argues is the wrong objective for QoS adaptation
// (Sec. IV-C.1).
type PMF struct {
	cfg   PMFConfig
	users *matrix.Dense // n x d
	items *matrix.Dense // m x d
	rmse  float64
}

// TrainPMF factorizes a frozen sparse QoS matrix.
func TrainPMF(m *matrix.Sparse, cfg PMFConfig) (*PMF, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n, cols, d := m.Rows(), m.Cols(), cfg.Rank
	p := &PMF{
		cfg:   cfg,
		users: matrix.NewDense(n, d),
		items: matrix.NewDense(cols, d),
	}
	scale := 0.1
	p.users.Apply(func(float64) float64 { return rng.NormFloat64() * scale })
	p.items.Apply(func(float64) float64 { return rng.NormFloat64() * scale })

	entries := m.Entries()
	if len(entries) == 0 {
		return p, nil
	}
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}

	prevRMSE := math.Inf(1)
	for epoch := 0; epoch < cfg.MaxEpochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		var sqErr float64
		for _, idx := range order {
			e := entries[idx]
			r := e.Val / cfg.RMax
			ui := p.users.Row(e.Row)
			sj := p.items.Row(e.Col)
			diff := matrix.Dot(ui, sj) - r
			sqErr += diff * diff
			for k := 0; k < d; k++ {
				uk, sk := ui[k], sj[k]
				ui[k] = uk - cfg.LearnRate*(diff*sk+cfg.Reg*uk)
				sj[k] = sk - cfg.LearnRate*(diff*uk+cfg.Reg*sk)
			}
		}

		p.rmse = math.Sqrt(sqErr / float64(len(entries)))
		if prevRMSE < math.Inf(1) && prevRMSE > 0 {
			if math.Abs(prevRMSE-p.rmse)/prevRMSE < cfg.Tol {
				break
			}
		}
		prevRMSE = p.rmse
	}
	return p, nil
}

// Name implements Predictor.
func (p *PMF) Name() string { return "PMF" }

// Predict returns U_iᵀS_j denormalized to QoS units, capped at RMax and
// floored at 0 only when ClampNonNegative is set.
func (p *PMF) Predict(user, service int) (float64, bool) {
	if user < 0 || user >= p.users.Rows() || service < 0 || service >= p.items.Rows() {
		return 0, false
	}
	v := matrix.Dot(p.users.Row(user), p.items.Row(service)) * p.cfg.RMax
	if p.cfg.ClampNonNegative && v < 0 {
		v = 0
	}
	if v > p.cfg.RMax {
		v = p.cfg.RMax
	}
	return v, true
}
