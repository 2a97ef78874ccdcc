package idtab

import (
	"math"
	"testing"
)

// check holds the table to the map it shadows: same length, same
// contents through Get and through Each, and a slot array that follows
// the entry count.
func check(t *testing.T, tab *Table[int32], ref map[int]int32) {
	t.Helper()
	if tab.Len() != len(ref) {
		t.Fatalf("Len %d, map has %d", tab.Len(), len(ref))
	}
	for id, want := range ref {
		if got, ok := tab.Get(id); !ok || got != want {
			t.Fatalf("Get(%d) = %d, %v; map has %d", id, got, ok, want)
		}
	}
	seen := 0
	tab.Each(func(id int, v int32) {
		if want, ok := ref[id]; !ok || v != want {
			t.Fatalf("Each visited %d → %d; map has %d, %v", id, v, want, ok)
		}
		seen++
	})
	if seen != len(ref) {
		t.Fatalf("Each visited %d entries, map has %d", seen, len(ref))
	}
	if slots := len(tab.keys); slots > minSlots && slots > 8*tab.n {
		t.Fatalf("%d slots for %d entries: slot memory must follow the entry count", slots, tab.n)
	}
	if 2*tab.n > len(tab.keys) {
		t.Fatalf("%d entries in %d slots: over half full", tab.n, len(tab.keys))
	}
}

// fuzzIDs are the ids a script byte can name: the two sentinels' worth of
// edge cases, ids far apart in magnitude, a dense run, a run one view
// shard's stride apart, and ids that share a home slot in a small table
// so probe runs wrap past the end of the array.
var fuzzIDs = func() []int {
	ids := []int{-1, 0, 1, 1 << 40, -(1 << 40), math.MaxInt, math.MinInt, math.MinInt + 1}
	for i := 2; i < 40; i++ {
		ids = append(ids, i, i*64+7)
	}
	probe := New[int32](0)
	for id, n := 1000, 0; n < 24; id++ {
		if h := probe.home(id); h == len(probe.keys)-1 || h == len(probe.keys)-2 {
			ids = append(ids, id)
			n++
		}
	}
	return ids
}()

// FuzzTable is the differential target: a script of put / overwrite /
// remove / get over fuzzIDs runs against a Table and a map[int]int32,
// which must agree after every step.
func FuzzTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 6, 1, 0, 1, 6, 2, 6})
	var wrap, churn []byte
	for i := 0; i < 24; i++ {
		wrap = append(wrap, 0, byte(len(fuzzIDs)-1-i))
	}
	for i := 0; i < 24; i++ {
		wrap = append(wrap, 1, byte(len(fuzzIDs)-1-i))
	}
	f.Add(wrap)
	for i := 0; i < 100; i++ {
		churn = append(churn, 0, byte(i))
	}
	for i := 0; i < 100; i += 2 {
		churn = append(churn, 1, byte(i), 0, byte(i+1))
	}
	for i := 0; i < 100; i++ {
		churn = append(churn, 1, byte(i))
	}
	f.Add(churn)
	f.Fuzz(func(t *testing.T, script []byte) {
		tab, ref := New[int32](0), map[int]int32{}
		for step := 0; step+1 < len(script); step += 2 {
			id := fuzzIDs[int(script[step+1])%len(fuzzIDs)]
			switch script[step] % 3 {
			case 0:
				tab.Put(id, int32(step))
				ref[id] = int32(step)
			case 1:
				tab.Remove(id)
				delete(ref, id)
			case 2:
				got, ok := tab.Get(id)
				if want, has := ref[id]; ok != has || got != want {
					t.Fatalf("step %d: Get(%d) = %d, %v; map has %d, %v", step, id, got, ok, want, has)
				}
			}
			check(t, tab, ref)
		}
	})
}

// TestSlotsFollowEntries fills and drains a table over ids as large as an
// int goes: the array grows to hold the entries and gives the memory back,
// whatever the ids' magnitude.
func TestSlotsFollowEntries(t *testing.T) {
	tab, ref := New[int32](0), map[int]int32{}
	const n = 5000
	id := func(i int) int { return i * (math.MaxInt / n) }
	for i := 0; i < n; i++ {
		tab.Put(id(i), int32(i))
		ref[id(i)] = int32(i)
	}
	check(t, tab, ref)
	if slots := len(tab.keys); slots != 16384 {
		t.Fatalf("%d slots for %d entries, want 16384", slots, n)
	}
	for i := 0; i < n; i++ {
		tab.Remove(id(i))
		delete(ref, id(i))
		if i%97 == 0 {
			check(t, tab, ref)
		}
	}
	check(t, tab, ref)
	if slots := len(tab.keys); slots != minSlots {
		t.Fatalf("%d slots left in an empty table, want %d", slots, minSlots)
	}
}

// TestPresized: New(n) takes n entries without growing.
func TestPresized(t *testing.T) {
	tab := New[int32](313)
	slots := len(tab.keys)
	for i := 0; i < 313; i++ {
		tab.Put(i*64+5, int32(i))
	}
	if len(tab.keys) != slots || slots != 1024 {
		t.Fatalf("presized for 313: %d slots before, %d after, want 1024 both", slots, len(tab.keys))
	}
}
