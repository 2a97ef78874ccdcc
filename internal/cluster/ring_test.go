package cluster

import (
	"fmt"
	"testing"
)

// lookupKey routes a string key the way Gateway.groupFor does.
func lookupKey(r *Ring, key string) *Member { return r.lookup(hash64(key)) }

func TestRingLookupDeterministic(t *testing.T) {
	a := NewRing(64)
	b := NewRing(64)
	for _, name := range []string{"shard-0", "shard-1", "shard-2"} {
		a.Add(name)
		b.Add(name)
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("user-%d", i)
		if ma, mb := lookupKey(a, key), lookupKey(b, key); ma.Name() != mb.Name() {
			t.Fatalf("key %q: ring A says %s, ring B says %s", key, ma.Name(), mb.Name())
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	r := NewRing(0)
	if r.VNodes() != 128 {
		t.Fatalf("default vnodes = %d", r.VNodes())
	}
	if lookupKey(r, "anything") != nil {
		t.Fatal("empty ring should return nil")
	}
	m := r.Add("only")
	if got := lookupKey(r, "anything"); got != m {
		t.Fatalf("single-member ring routed to %v", got)
	}
}

func TestRingAddIdempotent(t *testing.T) {
	r := NewRing(32)
	m1 := r.Add("a")
	m2 := r.Add("a")
	if m1 != m2 {
		t.Fatal("re-adding a member should return the existing one")
	}
	r.Add("b")
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestRingBalance(t *testing.T) {
	// With 128 vnodes per member the per-member share of a large keyset
	// should be within a reasonable band of the fair share.
	r := NewRing(128)
	const members = 4
	for i := 0; i < members; i++ {
		r.Add(fmt.Sprintf("shard-%d", i))
	}
	const keys = 20000
	counts := make(map[string]int)
	for i := 0; i < keys; i++ {
		counts[lookupKey(r, fmt.Sprintf("user-%d", i)).Name()]++
	}
	fair := keys / members
	for name, n := range counts {
		if n < fair/2 || n > fair*2 {
			t.Errorf("member %s owns %d keys (fair share %d)", name, n, fair)
		}
	}
	if len(counts) != members {
		t.Fatalf("only %d members received keys", len(counts))
	}
}

func TestRingMinimalMovement(t *testing.T) {
	// Consistent hashing's defining property: adding one member moves
	// roughly 1/N of the keys and nothing else.
	r := NewRing(128)
	for i := 0; i < 3; i++ {
		r.Add(fmt.Sprintf("shard-%d", i))
	}
	const keys = 10000
	before := make([]string, keys)
	for i := range before {
		before[i] = lookupKey(r, fmt.Sprintf("user-%d", i)).Name()
	}
	r.Add("shard-3")
	moved, movedElsewhere := 0, 0
	for i := 0; i < keys; i++ {
		after := lookupKey(r, fmt.Sprintf("user-%d", i)).Name()
		if after != before[i] {
			moved++
			if after != "shard-3" {
				movedElsewhere++
			}
		}
	}
	// Expected movement is keys/4 = 2500; allow generous slack.
	if moved > keys/2 {
		t.Errorf("adding one member moved %d/%d keys — not incremental", moved, keys)
	}
	if movedElsewhere != 0 {
		t.Errorf("%d keys moved between PRE-EXISTING members; only the new member may gain keys", movedElsewhere)
	}
}

func TestHealthString(t *testing.T) {
	for h, want := range map[Health]string{Healthy: "healthy", Suspect: "suspect", Down: "down"} {
		if h.String() != want {
			t.Errorf("%d.String() = %q", h, h.String())
		}
	}
}
