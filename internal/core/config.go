// Package core implements Adaptive Matrix Factorization (AMF), the paper's
// contribution: an online QoS prediction model that factorizes the sparse
// user-service QoS matrix and keeps itself current from a stream of
// observations. It extends conventional matrix factorization with
//
//   - data transformation: Box-Cox + [0,1] normalization of QoS values and
//     a sigmoid link on latent inner products (Sec. IV-C.1),
//   - a relative-error loss, matching how QoS predictions are judged for
//     adaptation decisions (Eq. 6-7),
//   - online stochastic gradient descent over individual samples with a
//     replay pool and data expiration (Sec. IV-C.2, Algorithm 1),
//   - adaptive per-user/per-service weights that protect converged
//     entities from noisy newcomers under churn (Sec. IV-C.3, Eq. 10-17).
package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/qoslab/amf/internal/transform"
)

// Config holds AMF hyperparameters. DefaultConfig returns the paper's
// evaluation settings (Sec. V-C).
type Config struct {
	// Rank is the latent dimensionality d. Paper: 10.
	Rank int
	// LearnRate is the SGD step size η. Paper: 0.8.
	LearnRate float64
	// RegUser and RegService are the regularization strengths λu, λs.
	// Paper: both 0.001.
	RegUser    float64
	RegService float64
	// Beta is the exponential-moving-average factor β of the adaptive
	// error trackers (Eq. 13-14). Paper: 0.3.
	Beta float64
	// Alpha is the Box-Cox parameter (Eq. 3). Paper: -0.007 for response
	// time, -0.05 for throughput; 1 disables de-skewing (the AMF(α=1)
	// ablation).
	Alpha float64
	// RMin and RMax bound the QoS value range for normalization (Eq. 4).
	RMin, RMax float64
	// Expiry drops replay samples older than this from the pool
	// (Algorithm 1 lines 12-15). Zero disables expiration. Paper: the
	// 15-minute slice interval.
	Expiry time.Duration
	// Seed makes latent-factor initialization and replay deterministic.
	Seed int64

	// AdaptiveWeights enables the per-entity weights of Eq. 16-17. When
	// false the model degenerates to plain online MF (Eq. 8-9), the
	// fixed-w variant of `amfbench -exp ablation`.
	AdaptiveWeights bool
	// RelativeLoss selects the (r−g)/r loss of Eq. 6. When false the
	// model minimizes the absolute loss (r−g)², the abs-loss variant of
	// `amfbench -exp ablation` and effectively PMF's objective.
	RelativeLoss bool

	// MaxGradNorm clips the common gradient factor (g−r)·g′/r² of each
	// update. The relative-error loss divides by r², which explodes when
	// normalized targets sit near zero (poorly tuned α, or outliers near
	// RMin); clipping bounds each latent step to ≈ LearnRate and keeps
	// SGD stable across the whole α range. Zero means the default of 1,
	// which never binds under a well-tuned Box-Cox α.
	MaxGradNorm float64
}

// DefaultConfig returns the paper's hyperparameters for the given QoS
// value range and Box-Cox alpha.
func DefaultConfig(alpha, rmin, rmax float64) Config {
	return Config{
		Rank:            10,
		LearnRate:       0.8,
		RegUser:         0.001,
		RegService:      0.001,
		Beta:            0.3,
		Alpha:           alpha,
		RMin:            rmin,
		RMax:            rmax,
		Expiry:          15 * time.Minute,
		Seed:            1,
		AdaptiveWeights: true,
		RelativeLoss:    true,
	}
}

// Validate reports the first configuration problem, or nil.
func (c Config) Validate() error {
	switch {
	case c.Rank <= 0:
		return fmt.Errorf("core: Rank must be positive, got %d", c.Rank)
	case c.LearnRate <= 0:
		return fmt.Errorf("core: LearnRate must be positive, got %g", c.LearnRate)
	case c.RegUser < 0 || c.RegService < 0:
		return fmt.Errorf("core: regularization must be non-negative, got λu=%g λs=%g", c.RegUser, c.RegService)
	case c.Beta <= 0 || c.Beta > 1:
		return fmt.Errorf("core: Beta must be in (0,1], got %g", c.Beta)
	case c.MaxGradNorm < 0:
		return fmt.Errorf("core: MaxGradNorm must be non-negative, got %g", c.MaxGradNorm)
	case c.Expiry < 0:
		return fmt.Errorf("core: Expiry must be non-negative, got %v", c.Expiry)
	}
	if _, err := transform.New(c.Alpha, c.RMin, c.RMax); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.MaxGradNorm == 0 {
		c.MaxGradNorm = 1
	}
	return c
}

// ErrUnknownUser is returned by Predict for a user the model has never
// observed.
var ErrUnknownUser = errors.New("core: unknown user")

// ErrUnknownService is returned by Predict for a service the model has
// never observed.
var ErrUnknownService = errors.New("core: unknown service")
