package stream

import (
	"math"
	"math/rand"
	"slices"
	"time"

	"github.com/qoslab/amf/internal/idtab"
)

// Pool is the replay buffer behind Algorithm 1's "randomly pick an
// existing data sample" step (lines 11-15): it retains the newest sample
// of every (user, service) pair, serves uniformly random picks for
// continued SGD between arrivals, and expires samples older than a
// configurable interval (the paper expires at the 15-minute slice
// interval). A re-observed pair overwrites its slot, so the pool's size
// follows the number of distinct pairs alive, not the arrival count.
//
// The pair index is one row per user, service → index of the pair's
// sample in samples: an observe batch is one user's samples, so its
// lookups all land in one row (the last one used is remembered) — a few
// KB for a user with a few hundred pairs — instead of across one
// pool-wide table, and a departing user's samples are found without a
// scan. The index is 32 bits wide, which keeps a slot at 12 bytes and
// bounds the pool at 2³¹−1 samples; a pair arriving beyond that trains
// the model but is not retained for replay.
type Pool struct {
	expiry  time.Duration
	rng     *rand.Rand
	samples []Sample
	rows    *idtab.Table[*idtab.Table[int32]]
	// lastUser/lastRow remember the row Add used last (nil: none).
	lastUser int
	lastRow  *idtab.Table[int32]
	now      time.Duration
}

// NewPool creates a replay pool. expiry <= 0 disables expiration.
func NewPool(expiry time.Duration, seed int64) *Pool {
	return &Pool{
		expiry: expiry,
		rng:    rand.New(rand.NewSource(seed)),
		rows:   idtab.New[*idtab.Table[int32]](0),
	}
}

// Add inserts a newly observed sample, superseding any older sample of
// the same pair (an arrival older than what the pool holds is dropped),
// and advances the pool clock to the sample's time if it is newer.
func (p *Pool) Add(s Sample) {
	row := p.lastRow
	if row == nil || p.lastUser != s.User {
		var ok bool
		if row, ok = p.rows.Get(s.User); !ok {
			row = idtab.New[int32](0)
			p.rows.Put(s.User, row)
		}
		p.lastUser, p.lastRow = s.User, row
	}
	if i, ok := row.Get(s.Service); !ok {
		if len(p.samples) < math.MaxInt32 {
			row.Put(s.Service, int32(len(p.samples)))
			p.samples = append(p.samples, s)
		}
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

// evict swap-removes the sample at index i and its index entry, dropping
// the user's row with its last entry.
func (p *Pool) evict(i int) {
	s := p.samples[i]
	row, _ := p.rows.Get(s.User)
	row.Remove(s.Service)
	if row.Len() == 0 {
		p.dropRow(s.User)
	}
	p.unlist(i)
}

// unlist swap-removes the sample at index i from samples alone, pointing
// the index entry of the sample that takes its place at i.
func (p *Pool) unlist(i int) {
	last := len(p.samples) - 1
	if i != last {
		moved := p.samples[last]
		p.samples[i] = moved
		row, _ := p.rows.Get(moved.User)
		row.Put(moved.Service, int32(i))
	}
	p.samples = p.samples[:last]
}

func (p *Pool) dropRow(user int) {
	p.rows.Remove(user)
	if p.lastUser == user {
		p.lastRow = nil
	}
}

// Remove drops the pair's sample, if the pool holds one: what replay does
// with a pick whose user or service has left.
func (p *Pool) Remove(user, service int) {
	if row, ok := p.rows.Get(user); ok {
		if i, ok := row.Get(service); ok {
			p.evict(int(i))
		}
	}
}

// RemoveUser drops every sample of a departed user, in time proportional
// to how many there are.
func (p *Pool) RemoveUser(user int) {
	row, ok := p.rows.Get(user)
	if !ok {
		return
	}
	at := make([]int, 0, row.Len())
	row.Each(func(_ int, i int32) { at = append(at, int(i)) })
	// Highest index first: the sample swapped into each hole is then never
	// one of the user's own, and the order the rest of the pool ends up in
	// does not depend on the row's iteration order.
	slices.Sort(at)
	p.dropRow(user)
	for j := len(at) - 1; j >= 0; j-- {
		p.unlist(at[j])
	}
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
