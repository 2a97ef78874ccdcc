package stream

import (
	"math/rand"
	"testing"
	"time"
)

func TestPoolAddAndPick(t *testing.T) {
	p := NewPool(0, 1)
	p.Add(Sample{Time: 1, User: 1, Service: 2, Value: 3})
	s, ok := p.Pick()
	if !ok || s.User != 1 || s.Service != 2 {
		t.Fatalf("pick = %+v, %v", s, ok)
	}
	if p.Len() != 1 {
		t.Fatalf("len = %d", p.Len())
	}
}

func TestPoolEmptyPick(t *testing.T) {
	p := NewPool(time.Minute, 1)
	if _, ok := p.Pick(); ok {
		t.Fatal("empty pool should report no sample")
	}
}

func TestPoolExpiry(t *testing.T) {
	p := NewPool(15*time.Minute, 1)
	p.Add(Sample{Time: 0, User: 0, Service: 0, Value: 1})
	if _, ok := p.Pick(); !ok {
		t.Fatal("fresh sample should be live")
	}
	p.AdvanceTo(15 * time.Minute)
	if _, ok := p.Pick(); ok {
		t.Fatal("sample at exactly expiry age should be dead (Algorithm 1 line 12)")
	}
	if p.Len() != 0 {
		t.Fatalf("dead sample should have been evicted on pick, len=%d", p.Len())
	}
}

func TestPoolNoExpiryWhenDisabled(t *testing.T) {
	p := NewPool(0, 1)
	p.Add(Sample{Time: 0, User: 0, Service: 0})
	p.AdvanceTo(time.Hour * 1000)
	if _, ok := p.Pick(); !ok {
		t.Fatal("expiry disabled: sample must stay live")
	}
}

func TestPoolSupersededSampleDies(t *testing.T) {
	p := NewPool(0, 1)
	p.Add(Sample{Time: 1, User: 3, Service: 4, Value: 10})
	p.Add(Sample{Time: 2, User: 3, Service: 4, Value: 20})
	p.Add(Sample{Time: 1, User: 3, Service: 4, Value: 30}) // late arrival of an older observation
	// A re-observed pair takes no second slot: the pool is bounded by the
	// pairs alive, however often they are observed.
	if p.Len() != 1 {
		t.Fatalf("superseded sample still retained, len=%d", p.Len())
	}
	// Only the newest observation of the pair is ever picked.
	for i := 0; i < 20; i++ {
		s, ok := p.Pick()
		if !ok {
			t.Fatal("pool should have a live sample")
		}
		if s.Value != 20 {
			t.Fatalf("picked superseded sample %+v", s)
		}
	}
}

func TestPoolClockMonotone(t *testing.T) {
	p := NewPool(time.Minute, 1)
	p.Add(Sample{Time: 10 * time.Second})
	p.AdvanceTo(5 * time.Second) // must not move backward
	if p.now != 10*time.Second {
		t.Fatalf("clock = %v, want 10s", p.now)
	}
	p.Add(Sample{Time: 2 * time.Second, User: 1}) // old sample must not rewind
	if p.now != 10*time.Second {
		t.Fatalf("clock = %v after old add", p.now)
	}
}

func TestPoolCompact(t *testing.T) {
	p := NewPool(time.Minute, 1)
	for i := 0; i < 10; i++ {
		p.Add(Sample{Time: time.Duration(i) * time.Second, User: i, Service: 0})
	}
	p.Add(Sample{Time: 5 * time.Minute, User: 99, Service: 0})
	p.Compact()
	if p.Len() != 1 {
		t.Fatalf("compact kept %d samples, want 1", p.Len())
	}
	s, ok := p.Pick()
	if !ok || s.User != 99 {
		t.Fatalf("survivor = %+v, %v", s, ok)
	}
	// Eviction moved the survivor; re-observing it must still find its slot.
	p.Add(Sample{Time: 6 * time.Minute, User: 99, Service: 0, Value: 7})
	if s, _ := p.Pick(); p.Len() != 1 || s.Value != 7 {
		t.Fatalf("after re-observe: len=%d pick=%+v", p.Len(), s)
	}
}

func TestPoolPickEventuallyCoversAllLive(t *testing.T) {
	p := NewPool(0, 3)
	for i := 0; i < 5; i++ {
		p.Add(Sample{Time: 1, User: i, Service: 0})
	}
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		s, ok := p.Pick()
		if !ok {
			t.Fatal("pool should stay live")
		}
		seen[s.User] = true
	}
	if len(seen) != 5 {
		t.Fatalf("random pick covered %d of 5 live samples", len(seen))
	}
}

// refPool is the pool as it was when one Go map indexed every pair: the
// reference TestPoolMatchesMapReference holds the row-indexed Pool to.
// Remove and RemoveUser, which it never had, are spelled the slow way.
type refPool struct {
	expiry  time.Duration
	rng     *rand.Rand
	samples []Sample
	slot    map[[2]int]int
	now     time.Duration
}

func (p *refPool) Add(s Sample) {
	key := [2]int{s.User, s.Service}
	if i, ok := p.slot[key]; !ok {
		p.slot[key] = len(p.samples)
		p.samples = append(p.samples, s)
	} else if s.Time >= p.samples[i].Time {
		p.samples[i] = s
	}
	p.AdvanceTo(s.Time)
}

func (p *refPool) AdvanceTo(t time.Duration) {
	if t > p.now {
		p.now = t
	}
}

func (p *refPool) expired(s Sample) bool {
	return p.expiry > 0 && p.now-s.Time >= p.expiry
}

func (p *refPool) Pick() (Sample, bool) {
	for len(p.samples) > 0 {
		i := p.rng.Intn(len(p.samples))
		if s := p.samples[i]; !p.expired(s) {
			return s, true
		}
		p.evict(i)
	}
	return Sample{}, false
}

func (p *refPool) evict(i int) {
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

func (p *refPool) Compact() {
	for i := 0; i < len(p.samples); {
		if p.expired(p.samples[i]) {
			p.evict(i)
		} else {
			i++
		}
	}
}

func (p *refPool) Remove(user, service int) {
	if i, ok := p.slot[[2]int{user, service}]; ok {
		p.evict(i)
	}
}

func (p *refPool) RemoveUser(user int) {
	for i := len(p.samples) - 1; i >= 0; i-- {
		if p.samples[i].User == user {
			p.evict(i)
		}
	}
}

// TestPoolMatchesMapReference drives the Pool and the map-backed
// reference with one script under one seed. Replay picks by position, so
// "the same pool" means the same samples at the same positions after
// every step: equal Pick streams, equal Len, equal Each order.
func TestPoolMatchesMapReference(t *testing.T) {
	const expiry = 2 * time.Minute
	for _, seed := range []int64{1, 2, 3} {
		p := NewPool(expiry, seed)
		ref := &refPool{expiry: expiry, rng: rand.New(rand.NewSource(seed)), slot: map[[2]int]int{}}
		script := rand.New(rand.NewSource(seed + 100))
		now := time.Duration(0)
		same := func(step int, what string) {
			t.Helper()
			if p.Len() != len(ref.samples) {
				t.Fatalf("seed %d step %d (%s): Len %d, reference %d", seed, step, what, p.Len(), len(ref.samples))
			}
			i := 0
			p.Each(func(s Sample) {
				if s != ref.samples[i] {
					t.Fatalf("seed %d step %d (%s): position %d holds %+v, reference %+v", seed, step, what, i, s, ref.samples[i])
				}
				i++
			})
		}
		for step := 0; step < 4000; step++ {
			switch op := script.Intn(100); {
			case op < 55: // one user's batch, pairs repeating
				u := script.Intn(40)
				for i := 0; i < 16; i++ {
					now += time.Duration(script.Intn(200)) * time.Millisecond
					s := Sample{Time: now - time.Duration(script.Intn(2))*time.Second, User: u, Service: script.Intn(120), Value: script.Float64()}
					p.Add(s)
					ref.Add(s)
				}
				same(step, "add")
			case op < 85:
				for i := 0; i < 8; i++ {
					got, ok := p.Pick()
					want, wok := ref.Pick()
					if got != want || ok != wok {
						t.Fatalf("seed %d step %d: Pick %+v, %v; reference %+v, %v", seed, step, got, ok, want, wok)
					}
				}
				same(step, "pick")
			case op < 90:
				now += time.Duration(script.Intn(90)) * time.Second
				p.AdvanceTo(now)
				ref.AdvanceTo(now)
			case op < 93:
				p.Compact()
				ref.Compact()
				same(step, "compact")
			case op < 97:
				u, s := script.Intn(40), script.Intn(120)
				p.Remove(u, s)
				ref.Remove(u, s)
				same(step, "remove")
			default:
				u := script.Intn(40)
				p.RemoveUser(u)
				ref.RemoveUser(u)
				same(step, "remove user")
			}
		}
		// The index must still find every retained pair: re-observing
		// each one grows neither pool.
		n := p.Len()
		for _, s := range append([]Sample(nil), ref.samples...) {
			s.Time = now + time.Second
			p.Add(s)
			ref.Add(s)
		}
		if p.Len() != n || len(ref.samples) != n {
			t.Fatalf("seed %d: re-observing %d retained pairs grew the pool to %d (reference %d)", seed, n, p.Len(), len(ref.samples))
		}
		same(4000, "re-observe")
	}
}
