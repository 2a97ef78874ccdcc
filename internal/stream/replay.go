package stream

import (
	"math/rand"
	"time"
)

// Pool is the replay buffer behind Algorithm 1's "randomly pick an
// existing data sample" step (lines 11-15): it retains the newest sample
// of every (user, service) pair, serves uniformly random picks for
// continued SGD between arrivals, and expires samples older than a
// configurable interval (the paper expires at the 15-minute slice
// interval). A re-observed pair overwrites its slot, so the pool's size
// follows the number of distinct pairs alive, not the arrival count.
type Pool struct {
	expiry  time.Duration
	rng     *rand.Rand
	samples []Sample
	slot    map[[2]int]int // pair → index of its sample in samples
	now     time.Duration
}

// NewPool creates a replay pool. expiry <= 0 disables expiration.
func NewPool(expiry time.Duration, seed int64) *Pool {
	return &Pool{
		expiry: expiry,
		rng:    rand.New(rand.NewSource(seed)),
		slot:   make(map[[2]int]int),
	}
}

// Add inserts a newly observed sample, superseding any older sample of
// the same pair (an arrival older than what the pool holds is dropped),
// and advances the pool clock to the sample's time if it is newer.
func (p *Pool) Add(s Sample) {
	key := [2]int{s.User, s.Service}
	if i, ok := p.slot[key]; !ok {
		p.slot[key] = len(p.samples)
		p.samples = append(p.samples, s)
	} else if s.Time >= p.samples[i].Time {
		p.samples[i] = s
	}
	if s.Time > p.now {
		p.now = s.Time
	}
}

// AdvanceTo moves the pool clock forward (it never moves backward).
func (p *Pool) AdvanceTo(t time.Duration) {
	if t > p.now {
		p.now = t
	}
}

// Len returns the number of retained samples, including any expired ones
// not yet evicted.
func (p *Pool) Len() int { return len(p.samples) }

// Pick returns a uniformly random live sample, lazily evicting expired
// ones it encounters. It returns (Sample{}, false) when the pool has no
// live samples - the "wait until observing new QoS data" state of
// Algorithm 1.
func (p *Pool) Pick() (Sample, bool) {
	for len(p.samples) > 0 {
		i := p.rng.Intn(len(p.samples))
		if s := p.samples[i]; !p.expired(s) {
			return s, true
		}
		p.evict(i)
	}
	return Sample{}, false
}

// expired reports whether a sample is past its time: tij not newer than
// now − expiry (Algorithm 1 line 12).
func (p *Pool) expired(s Sample) bool {
	return p.expiry > 0 && p.now-s.Time >= p.expiry
}

// evict swap-removes the sample at index i.
func (p *Pool) evict(i int) {
	s := p.samples[i]
	delete(p.slot, [2]int{s.User, s.Service})
	last := len(p.samples) - 1
	if i != last {
		moved := p.samples[last]
		p.samples[i] = moved
		p.slot[[2]int{moved.User, moved.Service}] = i
	}
	p.samples = p.samples[:last]
}

// Each calls f for every retained sample. Call Compact first to restrict
// the visit to live samples.
func (p *Pool) Each(f func(Sample)) {
	for _, s := range p.samples {
		f(s)
	}
}

// Compact eagerly drops every expired sample, reclaiming memory after
// bulk expiry. It preserves no particular order.
func (p *Pool) Compact() {
	for i := 0; i < len(p.samples); {
		if p.expired(p.samples[i]) {
			p.evict(i)
		} else {
			i++
		}
	}
}
