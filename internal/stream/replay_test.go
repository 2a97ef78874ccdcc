package stream

import (
	"math/rand"
	"testing"
	"time"
)

func TestPoolAddAndPick(t *testing.T) {
	p := NewPool(0, 1)
	p.AddAll([]Sample{{Time: 1, User: 1, Service: 2, Value: 3}})
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
	p.AddAll([]Sample{{Time: 0, User: 0, Service: 0, Value: 1}})
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
	p.AddAll([]Sample{{Time: 0, User: 0, Service: 0}})
	p.AdvanceTo(time.Hour * 1000)
	if _, ok := p.Pick(); !ok {
		t.Fatal("expiry disabled: sample must stay live")
	}
}

func TestPoolSupersededSampleDies(t *testing.T) {
	p := NewPool(0, 1)
	p.AddAll([]Sample{{Time: 1, User: 3, Service: 4, Value: 10}})
	p.AddAll([]Sample{{Time: 2, User: 3, Service: 4, Value: 20}})
	p.AddAll([]Sample{{Time: 1, User: 3, Service: 4, Value: 30}}) // late arrival of an older observation
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
	p.AddAll([]Sample{{Time: 10 * time.Second}})
	p.AdvanceTo(5 * time.Second) // must not move backward
	if p.now != 10*time.Second {
		t.Fatalf("clock = %v, want 10s", p.now)
	}
	p.AddAll([]Sample{{Time: 2 * time.Second, User: 1}}) // old sample must not rewind
	if p.now != 10*time.Second {
		t.Fatalf("clock = %v after old add", p.now)
	}
}

func TestPoolCompact(t *testing.T) {
	p := NewPool(time.Minute, 1)
	for i := 0; i < 10; i++ {
		p.AddAll([]Sample{{Time: time.Duration(i) * time.Second, User: i, Service: 0}})
	}
	p.AddAll([]Sample{{Time: 5 * time.Minute, User: 99, Service: 0}})
	p.Compact()
	if p.Len() != 1 {
		t.Fatalf("compact kept %d samples, want 1", p.Len())
	}
	s, ok := p.Pick()
	if !ok || s.User != 99 {
		t.Fatalf("survivor = %+v, %v", s, ok)
	}
	// Eviction moved the survivor; re-observing it must still find its slot.
	p.AddAll([]Sample{{Time: 6 * time.Minute, User: 99, Service: 0, Value: 7}})
	if s, _ := p.Pick(); p.Len() != 1 || s.Value != 7 {
		t.Fatalf("after re-observe: len=%d pick=%+v", p.Len(), s)
	}
}

func TestPoolPickEventuallyCoversAllLive(t *testing.T) {
	p := NewPool(0, 3)
	for i := 0; i < 5; i++ {
		p.AddAll([]Sample{{Time: 1, User: i, Service: 0}})
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

// refPool is the pool as it was when one Go map indexed every pair and
// took one sample at a time: the reference TestPoolMatchesMapReference and
// FuzzPoolBatches hold the row-indexed, batch-applying Pool to.
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
			case op < 55: // one batch of up to three users' runs, pairs repeating in it
				var batch []Sample
				for r := script.Intn(3); r >= 0; r-- {
					u := script.Intn(40)
					for i := script.Intn(16); i >= 0; i-- {
						now += time.Duration(script.Intn(200)) * time.Millisecond
						batch = append(batch, Sample{Time: now - time.Duration(script.Intn(2))*time.Second, User: u, Service: script.Intn(120), Value: script.Float64()})
					}
				}
				p.AddAll(batch)
				for _, s := range batch {
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
		again := append([]Sample(nil), ref.samples...)
		for i := range again {
			again[i].Time = now + time.Second
			ref.Add(again[i])
		}
		p.AddAll(again)
		if p.Len() != n || len(ref.samples) != n {
			t.Fatalf("seed %d: re-observing %d retained pairs grew the pool to %d (reference %d)", seed, n, p.Len(), len(ref.samples))
		}
		same(4000, "re-observe")
	}
}

// FuzzPoolBatches is TestPoolMatchesMapReference with fuzzer-chosen
// scripts over a few users and services, so that a batch repeats pairs —
// some new to the pool, some held by it, some at an older time than the
// sample held — and runs of one user alternate inside a batch. Each
// script byte picks an operation: a batch (AddAll), picks, a removal of a
// pair or a user, a compaction or a clock advance. After every step both
// pools must hold the same samples at the same positions, and every pick
// must be the same.
func FuzzPoolBatches(f *testing.F) {
	f.Add(int64(1), []byte{0, 5, 1, 2, 5, 2, 1, 2, 3, 4, 0, 3, 0x10, 0x21, 0x10, 0x21, 0x14, 0x03})
	f.Add(int64(2), []byte{0, 7, 0, 0, 0, 0, 4, 0, 1, 0x31, 0, 0, 3, 8, 0x20, 5, 0, 0, 6, 7, 2})
	f.Add(int64(3), []byte{0, 15, 0xff, 0xf0, 0x04, 0x01, 0x08, 0x02, 2, 3, 1, 0x40, 0, 9, 0x03, 0x11, 0x07, 0x42, 5, 3})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		const expiry = 2 * time.Second
		p := NewPool(expiry, seed)
		ref := &refPool{expiry: expiry, rng: rand.New(rand.NewSource(seed)), slot: map[[2]int]int{}}
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		now := time.Duration(0)
		for step := 0; len(script) > 0; step++ {
			switch op := next(); op % 8 {
			case 0, 1, 2: // a batch of 1–16 samples; each takes two bytes
				batch := make([]Sample, 1+int(next())%16)
				for i := range batch {
					who, when := next(), next()
					now += time.Duration(when>>4) * 100 * time.Millisecond
					at := now
					if who&0x80 != 0 { // an older observation of the pair
						at -= time.Second
					}
					batch[i] = Sample{Time: at, User: int(who & 3), Service: int(when & 15), Value: float64(step*16 + i)}
				}
				p.AddAll(batch)
				for _, s := range batch {
					ref.Add(s)
				}
			case 3:
				for i := 1 + int(op>>3)%8; i > 0; i-- {
					got, ok := p.Pick()
					want, wok := ref.Pick()
					if got != want || ok != wok {
						t.Fatalf("step %d: Pick %+v, %v; reference %+v, %v", step, got, ok, want, wok)
					}
				}
			case 4:
				b := next()
				p.Remove(int(b&3), int(b>>4))
				ref.Remove(int(b&3), int(b>>4))
			case 5:
				p.RemoveUser(int(op>>3) & 3)
				ref.RemoveUser(int(op>>3) & 3)
			case 6:
				p.Compact()
				ref.Compact()
			case 7:
				now += time.Duration(op>>3) * 200 * time.Millisecond
				p.AdvanceTo(now)
				ref.AdvanceTo(now)
			}
			if p.Len() != len(ref.samples) {
				t.Fatalf("step %d: Len %d, reference %d", step, p.Len(), len(ref.samples))
			}
			i := 0
			p.Each(func(s Sample) {
				if s != ref.samples[i] {
					t.Fatalf("step %d: position %d holds %+v, reference %+v", step, i, s, ref.samples[i])
				}
				i++
			})
		}
	})
}
