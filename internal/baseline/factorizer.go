package baseline

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/qoslab/amf/internal/matrix"
)

// mfModel names one of the factorization models the shared SGD loop
// trains.
type mfModel int

const (
	// pmf minimizes Σ_(i,j) I_ij (r_ij − U_iᵀS_j)² + λ(‖U‖²_F + ‖S‖²_F)
	// on QoS values linearly normalized to [0,1]: the *absolute* error
	// the paper argues is the wrong objective for QoS adaptation
	// (Sec. IV-C.1).
	pmf mfModel = iota
	// biasedMF is the classic bias-augmented factorization (Koren et
	// al.), r̂_ij = μ + b_i + b_j + U_iᵀS_j. It is not in the paper's
	// Table I but is the natural "stronger PMF" an adopter would reach
	// for; AMF should still win the relative-error metrics against it.
	biasedMF
	// nimf is neighborhood-integrated matrix factorization (Zheng, Ma,
	// Lyu, King — IEEE TSC 2013, the paper's reference [23]): each user's
	// prediction blends their own latent factors with their PCC
	// neighborhood's,
	//
	//	r̂_ij = α·U_iᵀS_j + (1−α)·Σ_{k∈T(i)} w_ik·U_kᵀS_j
	//
	// where T(i) is the user's top-K positive-similarity neighborhood and
	// w_ik the similarities normalized to sum 1.
	nimf
)

// The factorizers' setting. The rank matches the paper's AMF setting
// for a fair comparison.
const (
	mfLearnRate = 0.05
	// nimfAlpha balances a user's own factors against the neighborhood
	// consensus (1 = pure MF): the NIMF paper's 0.4.
	nimfAlpha = 0.4
)

// mfParams are each model's regularization λ and the standard deviation
// of its initial factors.
var mfParams = [...]struct{ reg, scale float64 }{
	pmf:      {0.001, 0.1},
	biasedMF: {0.002, 0.05},
	nimf:     {0.001, 0.1},
}

// schedule is a factorizer's size and training budget: training stops
// after epochs passes, or once the training RMSE improves by a relative
// step below tol.
type schedule struct {
	rank, epochs int
	tol          float64
}

// mfSchedule is the budget every factorizer trains with.
var mfSchedule = schedule{rank: 10, epochs: 300, tol: 1e-4}

// factorizer is a trained factorization model: PMF, BiasedMF or NIMF.
// All three train offline by SGD on squared error over shuffled observed
// entries, so they share the retraining limitation AMF removes.
type factorizer struct {
	model     mfModel
	rmax      float64
	reg       float64
	users     *matrix.Dense // n × rank
	items     *matrix.Dense // m × rank
	mu        float64       // biasedMF: the mean normalized value
	userBias  []float64     // biasedMF
	itemBias  []float64     // biasedMF
	neighbors [][]neighbor  // nimf: per user, similarities normalized to sum 1
	blend     []float64     // nimf: α·U_i + (1−α)·Σ w_ik U_k of the sample in hand
	rmse      float64       // training RMSE of the last epoch
}

// TrainPMF factorizes a frozen sparse QoS matrix by probabilistic matrix
// factorization. rmax, the attribute's range maximum, normalizes values
// into [0,1]; seed fixes the initialization and the epoch shuffles.
func TrainPMF(m *matrix.Sparse, rmax float64, seed int64) (func(user, service int) (float64, bool), error) {
	f, err := trainFactorizer(m, pmf, rmax, seed, mfSchedule)
	if err != nil {
		return nil, err
	}
	return f.Predict, nil
}

// TrainBiasedMF factorizes a frozen sparse QoS matrix with user and
// service biases; rmax and seed as for TrainPMF.
func TrainBiasedMF(m *matrix.Sparse, rmax float64, seed int64) (func(user, service int) (float64, bool), error) {
	f, err := trainFactorizer(m, biasedMF, rmax, seed, mfSchedule)
	if err != nil {
		return nil, err
	}
	return f.Predict, nil
}

// TrainNIMF factorizes a frozen sparse QoS matrix with neighborhood
// integration; rmax and seed as for TrainPMF.
func TrainNIMF(m *matrix.Sparse, rmax float64, seed int64) (func(user, service int) (float64, bool), error) {
	f, err := trainFactorizer(m, nimf, rmax, seed, mfSchedule)
	if err != nil {
		return nil, err
	}
	return f.Predict, nil
}

// trainFactorizer is the one SGD loop: it draws the initial factors,
// then each epoch shuffles the observed entries and takes the model's
// gradient step on each, until the schedule's convergence test or epoch
// cap stops it.
func trainFactorizer(m *matrix.Sparse, model mfModel, rmax float64, seed int64, sc schedule) (*factorizer, error) {
	if rmax <= 0 {
		return nil, fmt.Errorf("baseline: RMax must be positive, got %g", rmax)
	}
	n, cols := m.Rows(), m.Cols()
	f := &factorizer{
		model: model,
		rmax:  rmax,
		reg:   mfParams[model].reg,
		users: matrix.NewDense(n, sc.rank),
		items: matrix.NewDense(cols, sc.rank),
	}
	switch model {
	case biasedMF:
		f.userBias = make([]float64, n)
		f.itemBias = make([]float64, cols)
	case nimf:
		f.neighbors = topNeighbors(axisVectors(m, true))
		for _, ns := range f.neighbors {
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
		f.blend = make([]float64, sc.rank)
	}
	rng := rand.New(rand.NewSource(seed))
	scale := mfParams[model].scale
	f.users.Apply(func(float64) float64 { return rng.NormFloat64() * scale })
	f.items.Apply(func(float64) float64 { return rng.NormFloat64() * scale })

	entries := m.Entries()
	if len(entries) == 0 {
		return f, nil
	}
	if model == biasedMF {
		var sum float64
		for _, e := range entries {
			sum += e.Val / rmax
		}
		f.mu = sum / float64(len(entries))
	}
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	prev := math.Inf(1)
	for epoch := 0; epoch < sc.epochs; epoch++ {
		rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		var sqErr float64
		for _, idx := range order {
			e := entries[idx]
			ui, sj := f.users.Row(e.Row), f.items.Row(e.Col)
			diff := f.estimate(e.Row, e.Col, ui, sj) - e.Val/rmax
			sqErr += diff * diff
			f.step(e.Row, e.Col, ui, sj, diff)
		}
		f.rmse = math.Sqrt(sqErr / float64(len(entries)))
		if prev < math.Inf(1) && prev > 0 && math.Abs(prev-f.rmse)/prev < sc.tol {
			break
		}
		prev = f.rmse
	}
	return f, nil
}

// estimate is the model's training estimate of the normalized r_ij, ui
// and sj being rows i and j of the factors. NIMF's leaves the blended
// user vector in f.blend for step.
func (f *factorizer) estimate(i, j int, ui, sj []float64) float64 {
	switch f.model {
	case biasedMF:
		return f.mu + f.userBias[i] + f.itemBias[j] + matrix.Dot(ui, sj)
	case nimf:
		for k := range f.blend {
			f.blend[k] = nimfAlpha * ui[k]
		}
		for _, nb := range f.neighbors[i] {
			uk := f.users.Row(nb.id)
			w := (1 - nimfAlpha) * nb.sim
			for k := range f.blend {
				f.blend[k] += w * uk[k]
			}
		}
		return matrix.Dot(f.blend, sj)
	}
	return matrix.Dot(ui, sj)
}

// step moves the parameters the sample (i, j) touches down the gradient
// of its squared error, diff being estimate − r_ij.
func (f *factorizer) step(i, j int, ui, sj []float64, diff float64) {
	reg := f.reg
	if f.model == nimf {
		// The neighbors' factors first, along the item vector the
		// estimate used (a user is never their own neighbor, so ui is
		// not among them); then own factors and item factors.
		for _, nb := range f.neighbors[i] {
			uk := f.users.Row(nb.id)
			w := (1 - nimfAlpha) * nb.sim
			for k := range uk {
				uk[k] -= mfLearnRate * w * diff * sj[k]
			}
		}
		for k := range ui {
			uk, sk, bk := ui[k], sj[k], f.blend[k]
			ui[k] = uk - mfLearnRate*(nimfAlpha*diff*sk+reg*uk)
			sj[k] = sk - mfLearnRate*(diff*bk+reg*sk)
		}
		return
	}
	if f.model == biasedMF {
		f.userBias[i] -= mfLearnRate * (diff + reg*f.userBias[i])
		f.itemBias[j] -= mfLearnRate * (diff + reg*f.itemBias[j])
	}
	for k := range ui {
		uk, sk := ui[k], sj[k]
		ui[k] = uk - mfLearnRate*(diff*sk+reg*uk)
		sj[k] = sk - mfLearnRate*(diff*uk+reg*sk)
	}
}

// Predict returns the model's estimate in QoS units, capped at RMax and
// raw on the low side: the paper's comparison counts negative
// predictions against the MF baselines' relative errors.
func (f *factorizer) Predict(user, service int) (float64, bool) {
	if user < 0 || user >= f.users.Rows() || service < 0 || service >= f.items.Rows() {
		return 0, false
	}
	var v float64
	if f.model == nimf {
		// The sum of dot products, not estimate's one blended dot: the
		// two round differently, and the recorded predictions
		// (TestBaselinesGolden) are this sum's.
		sj := f.items.Row(service)
		v = nimfAlpha * matrix.Dot(f.users.Row(user), sj)
		for _, nb := range f.neighbors[user] {
			v += (1 - nimfAlpha) * nb.sim * matrix.Dot(f.users.Row(nb.id), sj)
		}
	} else {
		v = f.estimate(user, service, f.users.Row(user), f.items.Row(service))
	}
	v *= f.rmax
	if v > f.rmax {
		v = f.rmax
	}
	return v, true
}
