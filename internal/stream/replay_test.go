package stream

import (
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
