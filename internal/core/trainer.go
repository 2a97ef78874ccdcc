package core

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/qoslab/amf/internal/obs"
	"github.com/qoslab/amf/internal/stream"
)

// Trainer is the parallel training path: it spreads SGD updates for one
// Model across W worker goroutines so that training throughput scales
// with cores instead of being pinned to the single writer that the
// serving engine used through PR 3.
//
// The parallelization follows the paper's own distributed-extension
// argument (Sec. VI): concurrent updates for *different users* touch
// disjoint user vectors and conflict only on the shared service vectors.
// Concretely:
//
//   - Users are partitioned by ID: worker w exclusively owns every user
//     with id&(W−1) == w, which (because W divides tableShards) is
//     exactly the users in the model-table shards {si : si&(W−1) == w}.
//     User-side lookups, registrations, latent-vector updates, error-
//     tracker updates, and dirty marks are therefore lock-free — no
//     other goroutine ever touches those shards while a fan-out runs.
//
//   - Service state is shared, so service-side work serializes through a
//     power-of-two array of striped mutexes indexed by the service's
//     shard hash (stripe == model shard == view shard; see table.go).
//     One brief stripe hold covers the service lookup/registration, the
//     numeric update, and the dirty mark. Stripe acquisitions that had
//     to wait are counted in Metrics().StripeContention.
//
// Every fan-out is fork-join: the coordinator (whoever calls Apply /
// ReplaySteps / Fit) dispatches per-worker batches and waits for all
// workers to finish before returning. Between fan-outs the workers are
// quiescent, so the single-threaded Model API (BuildView, RefreshView,
// Snapshot, RemoveUser, ...) remains safe to call from the coordinator
// exactly as before — the serving engine publishes views only between
// batches.
//
// With Workers == 1 the Trainer delegates to the exact serial Model code
// paths (Observe, ReplayStep, Fit), reproducing them bit for bit — the
// determinism contract behind the engine's -train-workers=1 mode.
type Trainer struct {
	m       *Model
	workers int

	stripes []stripeMutex // len tableShards; stripes[si] guards services shard si
	rngs    []*rand.Rand  // per-worker entity-init / shuffle randomness
	pools   []*stream.Pool
	parts   [][]stream.Sample // reusable partition scratch, len workers
	counts  []workerCount     // per-fan-out results, len workers

	tasks  []chan trainTask
	wg     sync.WaitGroup
	closed bool

	metrics *TrainerMetrics
}

// MaxTrainWorkers is the upper bound on Trainer workers: the model-table
// shard count, so worker ownership always aligns with table shards.
const MaxTrainWorkers = tableShards

// TrainerConfig tunes a Trainer. The zero value gets sensible defaults.
type TrainerConfig struct {
	// Workers is the number of training workers W. It is rounded down to
	// a power of two and clamped to [1, 64] (the model-table shard
	// count, so worker ownership aligns with table shards). 0 means
	// GOMAXPROCS rounded down to a power of two.
	Workers int
	// Metrics optionally supplies an existing instrumentation set to
	// record into instead of allocating a fresh one — the serving engine
	// uses this so a trainer rebuilt on Restore keeps the same series
	// its /metrics scrape is bound to. Nil allocates new metrics.
	Metrics *TrainerMetrics
}

// TrainerMetrics is the trainer's instrumentation, maintained always
// (recording is a few atomic adds). The server exposes these as the
// amf_train_* families on /metrics.
type TrainerMetrics struct {
	// Apply records one observation per worker per fan-out: the wall
	// time that worker spent applying its slice of the batch (seconds).
	Apply *obs.Histogram
	// StripeContention counts service-stripe acquisitions that found the
	// stripe already held by another worker (TryLock failed).
	StripeContention *obs.Counter
	// Batches counts coordinator fan-outs (Apply/replay/fit epochs).
	Batches *obs.Counter
}

// stripeMutex is a mutex padded out to a cache line so adjacent stripes
// do not false-share under contention.
type stripeMutex struct {
	sync.Mutex
	_ [56]byte
}

// workerCount is a per-worker fan-out result slot, padded so workers
// writing their own slot do not bounce a shared cache line.
type workerCount struct {
	steps   int     // samples visited (picks, in replay terms)
	updates int     // SGD updates actually applied
	errSum  float64 // training-error partial sum (fit error pass)
	errN    int     // training-error partial count
	_       [16]byte
}

type trainTask struct {
	fn func(w int)
	wg *sync.WaitGroup
}

// NewTrainer creates a parallel trainer for the model and starts its
// worker goroutines. The caller must not mutate the model directly while
// a trainer call is in flight (reads between calls are fine — workers
// are quiescent outside fan-outs). Close releases the workers.
func NewTrainer(m *Model, cfg TrainerConfig) *Trainer {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	// Round down to a power of two so ownership is a mask, clamp to the
	// table shard count so worker partitions align with table shards.
	p := 1
	for p*2 <= w && p*2 <= tableShards {
		p *= 2
	}
	w = p
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = &TrainerMetrics{
			Apply:            obs.NewHistogram(1e-9, 60, 8),
			StripeContention: &obs.Counter{},
			Batches:          &obs.Counter{},
		}
	}
	tr := &Trainer{
		m:       m,
		workers: w,
		stripes: make([]stripeMutex, tableShards),
		rngs:    make([]*rand.Rand, w),
		pools:   make([]*stream.Pool, w),
		parts:   make([][]stream.Sample, w),
		counts:  make([]workerCount, w),
		tasks:   make([]chan trainTask, w),
		metrics: metrics,
	}
	for i := 0; i < w; i++ {
		// Deterministic per-worker seeds, disjoint from the model's own
		// generator (cfg.Seed) and pool (cfg.Seed+1).
		seed := m.cfg.Seed + int64(1000*(i+2))
		tr.rngs[i] = rand.New(rand.NewSource(seed))
		tr.pools[i] = stream.NewPool(m.cfg.Expiry, seed+1)
	}
	if w > 1 {
		for i := 0; i < w; i++ {
			tr.tasks[i] = make(chan trainTask)
			tr.wg.Add(1)
			go tr.worker(i)
		}
	}
	return tr
}

// Workers returns the effective worker count (after rounding/clamping).
func (tr *Trainer) Workers() int { return tr.workers }

// Metrics returns the trainer's instrumentation.
func (tr *Trainer) Metrics() *TrainerMetrics { return tr.metrics }

// Close stops the worker goroutines. Idempotent. The model remains
// usable through its own serial API afterwards.
func (tr *Trainer) Close() {
	if tr.closed {
		return
	}
	tr.closed = true
	if tr.workers > 1 {
		for _, ch := range tr.tasks {
			close(ch)
		}
		tr.wg.Wait()
	}
}

func (tr *Trainer) worker(w int) {
	defer tr.wg.Done()
	for task := range tr.tasks[w] {
		task.fn(w)
		task.wg.Done()
	}
}

// fanOut runs fn(w) on every worker and waits for all of them — the
// fork-join barrier that brackets every parallel phase.
func (tr *Trainer) fanOut(fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(tr.workers)
	task := trainTask{fn: fn, wg: &wg}
	for _, ch := range tr.tasks {
		ch <- task
	}
	wg.Wait()
	tr.metrics.Batches.Inc()
}

// ownerOf maps a user ID to its owning worker. Because W divides
// tableShards, this equals shardOf(user) & (W−1): a user's worker is a
// function of its table shard, which is also its engine ingest shard
// modulo the worker mask — shard affinity end to end.
func (tr *Trainer) ownerOf(user int) int { return user & (tr.workers - 1) }

// ---------------------------------------------------------------------------
// Observe path.

// Apply ingests a batch of newly observed samples in parallel: it
// partitions them by owning worker (preserving per-user arrival order)
// and fans the per-sample work — registration, replay-pool insert, one
// online SGD update each — across the workers. It returns the number of
// updates applied (always len(ss)) after all workers have joined.
//
// With Workers == 1 it is exactly Model.ObserveAll.
func (tr *Trainer) Apply(ss []stream.Sample) int {
	if tr.workers == 1 {
		tr.m.ObserveAll(ss)
		return len(ss)
	}
	for i := range tr.parts {
		tr.parts[i] = tr.parts[i][:0]
	}
	for _, s := range ss {
		w := tr.ownerOf(s.User)
		tr.parts[w] = append(tr.parts[w], s)
	}
	return tr.ApplyOwned(tr.parts)
}

// ApplyOwned is Apply for a batch the caller has already partitioned by
// owning worker: parts[w] must contain only samples whose user is owned
// by worker w (ownerOf), in the order they should be applied. The
// serving engine builds parts directly from its ingest shards (shard si
// feeds worker si&(W−1)) so the samples never need re-partitioning.
func (tr *Trainer) ApplyOwned(parts [][]stream.Sample) int {
	if tr.workers == 1 {
		n := 0
		for _, part := range parts {
			tr.m.ObserveAll(part)
			n += len(part)
		}
		return n
	}
	counts := tr.counts
	tr.fanOut(func(w int) {
		part := parts[w]
		start := time.Now()
		for _, s := range part {
			tr.applySample(w, s, true)
			tr.pools[w].Add(s)
		}
		tr.metrics.Apply.Observe(time.Since(start).Seconds())
		counts[w].updates = len(part)
	})
	total := 0
	for i := range counts {
		total += counts[i].updates
	}
	tr.m.updates += int64(total)
	return total
}

// applySample performs one online update from worker w. register
// controls whether unknown entities are created (Observe semantics) or
// the sample is skipped (ReplayStep semantics: replays must not
// resurrect departed entities). It reports whether an update happened.
func (tr *Trainer) applySample(w int, s stream.Sample, register bool) bool {
	m := tr.m
	// User side: worker-exclusive shard, no locks.
	usi := shardOf(s.User)
	ush := m.users.shards[usi]
	u, ok := ush[s.User]
	if !ok {
		if !register {
			return false
		}
		u = newEntityWith(tr.rngs[w], &m.cfg)
		ush[s.User] = u
	}
	// Service side: shared, stripe-locked by shard.
	ssi := shardOf(s.Service)
	st := &tr.stripes[ssi]
	if !st.TryLock() {
		tr.metrics.StripeContention.Inc()
		st.Lock()
	}
	ssh := m.services.shards[ssi]
	v, ok := ssh[s.Service]
	if !ok {
		if !register {
			st.Unlock()
			return false
		}
		v = newEntityWith(tr.rngs[w], &m.cfg)
		ssh[s.Service] = v
	}
	m.dirtyServices.mark(s.Service, v)
	m.updateEntities(u, v, s.Value)
	st.Unlock()
	m.dirtyUsers.mark(s.User, u) // worker-owned shard
	return true
}

// ---------------------------------------------------------------------------
// Replay path.

// ReplaySteps performs up to n replay updates (Algorithm 1's "randomly
// pick an existing sample") split evenly across the workers, each worker
// drawing from its own partition of the replay pool. It returns the
// number of picks performed (like Model.ReplayStep, a pick whose
// entities have departed still counts — the sample was consumed).
//
// Parallel replay draws from the worker-local pools, which hold every
// sample ingested through Apply/ApplyOwned partitioned by owner; samples
// sitting in the model's own pool (observed through the serial API before
// the trainer existed) are not drawn here — Fit's epoch passes cover
// both sets. The engine's parallel mode ingests exclusively through the
// trainer, so its replay working set is complete.
//
// With Workers == 1 it is exactly n serial Model.ReplayStep calls.
func (tr *Trainer) ReplaySteps(n int) int {
	if tr.workers == 1 {
		done := 0
		for i := 0; i < n; i++ {
			if !tr.m.ReplayStep() {
				break
			}
			done++
		}
		return done
	}
	quota := (n + tr.workers - 1) / tr.workers
	counts := tr.counts
	tr.fanOut(func(w int) {
		start := time.Now()
		steps, updates := 0, 0
		pool := tr.pools[w]
		for i := 0; i < quota; i++ {
			s, ok := pool.Pick()
			if !ok {
				break
			}
			steps++
			if tr.applySample(w, s, false) {
				updates++
			}
		}
		if steps > 0 {
			tr.metrics.Apply.Observe(time.Since(start).Seconds())
		}
		counts[w].steps, counts[w].updates = steps, updates
	})
	steps, updates := 0, 0
	for i := range counts {
		steps += counts[i].steps
		updates += counts[i].updates
	}
	tr.m.updates += int64(updates)
	return steps
}

// AdvanceTo moves the model clock and every worker pool clock forward,
// expiring old replay samples on all partitions.
func (tr *Trainer) AdvanceTo(t time.Duration) {
	tr.m.AdvanceTo(t)
	for _, p := range tr.pools {
		p.AdvanceTo(t)
	}
}

// PoolLen returns the number of retained replay samples across the model
// pool and every worker pool.
func (tr *Trainer) PoolLen() int {
	n := tr.m.PoolLen()
	for _, p := range tr.pools {
		n += p.Len()
	}
	return n
}

// liveSamples snapshots every live replay sample the trainer can draw
// from: the model's own pool (samples observed through the serial API)
// plus every worker-local pool (samples ingested via Apply/ApplyOwned).
func (tr *Trainer) liveSamples() []stream.Sample {
	out := tr.m.liveSamples()
	for _, p := range tr.pools {
		p.Compact()
		p.Each(func(s stream.Sample) { out = append(out, s) })
	}
	return out
}

// ---------------------------------------------------------------------------
// Parallel fit (offline convergence on the model's replay pool).

// Fit is Model.Fit's parallel epoch mode: each epoch snapshots the live
// replay pool once, partitions it by owning worker, fans one full
// replay pass across the workers (each worker visits its samples in a
// per-epoch shuffled order), and then reduces the epoch-end training
// error in a single parallel pass — per-worker partial sums merged by
// the coordinator. Convergence criteria (Tol, MinEpochs, MaxEpochs) are
// identical to the serial loop.
//
// With Workers == 1 it is exactly Model.Fit.
func (tr *Trainer) Fit(opts FitOptions) FitResult {
	if tr.workers == 1 {
		opts.Workers = 0 // force the serial path; avoid re-delegation
		return tr.m.Fit(opts)
	}
	opts = opts.withDefaults()
	var res FitResult
	prev := math.Inf(1)
	counts := tr.counts
	for epoch := 0; epoch < opts.MaxEpochs; epoch++ {
		samples := tr.liveSamples()
		if len(samples) == 0 {
			break
		}
		for i := range tr.parts {
			tr.parts[i] = tr.parts[i][:0]
		}
		for _, s := range samples {
			w := tr.ownerOf(s.User)
			tr.parts[w] = append(tr.parts[w], s)
		}
		// Replay pass: one update per live sample, shuffled per worker.
		tr.fanOut(func(w int) {
			part := tr.parts[w]
			rng := tr.rngs[w]
			rng.Shuffle(len(part), func(a, b int) { part[a], part[b] = part[b], part[a] })
			start := time.Now()
			steps, updates := 0, 0
			for _, s := range part {
				steps++
				if tr.applySample(w, s, false) {
					updates++
				}
			}
			if steps > 0 {
				tr.metrics.Apply.Observe(time.Since(start).Seconds())
			}
			counts[w].steps, counts[w].updates = steps, updates
		})
		updates := 0
		for i := range counts {
			res.Steps += counts[i].steps
			updates += counts[i].updates
		}
		tr.m.updates += int64(updates)
		res.Epochs++
		// Error pass: pure reads (workers quiesced between fan-outs, and
		// within this pass nobody writes), reduced to one mean.
		tr.fanOut(func(w int) {
			sum, n := 0.0, 0
			for _, s := range tr.parts[w] {
				if e, ok := tr.m.sampleError(s); ok {
					sum += e
					n++
				}
			}
			counts[w].errSum, counts[w].errN = sum, n
		})
		sum, n := 0.0, 0
		for i := range counts {
			sum += counts[i].errSum
			n += counts[i].errN
		}
		cur := 0.0
		if n > 0 {
			cur = sum / float64(n)
		}
		if epoch+1 >= opts.MinEpochs && prev < math.Inf(1) {
			if prev == 0 || math.Abs(prev-cur)/math.Max(prev, epsTol) < opts.Tol {
				res.FinalError = cur
				res.Converged = true
				return res
			}
		}
		prev = cur
		res.FinalError = cur
	}
	return res
}
