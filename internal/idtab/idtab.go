// Package idtab is the one hash table on the write path: integer id → V,
// open-addressed with linear probing in a power-of-two slot array kept at
// most half full, keys and values in two parallel arrays so a narrow V
// stays narrow (12 bytes a slot for an int32). The replay pool's
// per-user rows, the model's entity tables and the view's id → row index
// are all this table; a lookup is a multiply, a shift and on average
// fewer than two key compares, against a Go map's hash call, bucket walk
// and tophash scan.
//
// Slot memory follows the entry count, never an id's magnitude: the table
// doubles when an insert would pass half full and halves when a removal
// leaves it under an eighth, so slots ≤ max(minSlots, 8 × entries) unless
// New was asked for more. Any int is a valid id. The hash is a fixed multiplier, which
// keeps iteration order — and so everything trained through it — a
// function of the operations alone; ids come from the server's own
// registries, not from clients.
//
// A Table is not safe for concurrent use. One that is no longer written
// may be read from any number of goroutines.
package idtab

import (
	"math"
	"math/bits"
)

const (
	minSlots = 8
	// empty marks a free slot. It is a valid id all the same: its entry
	// lives beside the arrays (hasEmpty, emptyVal).
	empty = math.MinInt
)

// Table maps integer ids to values. Construct with New.
type Table[V any] struct {
	keys  []int
	vals  []V
	n     int  // entries in the arrays (the empty id's not included)
	shift uint // 64 − log2(len(keys)): home(id) takes the hash's top bits

	hasEmpty bool
	emptyVal V
}

// New returns an empty table with room for n entries before it grows.
func New[V any](n int) *Table[V] {
	t := &Table[V]{}
	slots := minSlots
	for slots < 2*n {
		slots <<= 1
	}
	t.alloc(slots)
	return t
}

func (t *Table[V]) alloc(slots int) {
	t.keys = make([]int, slots)
	for i := range t.keys {
		t.keys[i] = empty
	}
	t.vals = make([]V, slots)
	t.shift = uint(64 - bits.TrailingZeros(uint(slots)))
}

// home is the slot an id probes from: Fibonacci hashing, so dense ids and
// ids a constant stride apart (one view shard holds every 64th) spread
// alike.
func (t *Table[V]) home(id int) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> t.shift)
}

// Len returns the number of entries.
func (t *Table[V]) Len() int {
	if t.hasEmpty {
		return t.n + 1
	}
	return t.n
}

// Get returns the value stored under id.
func (t *Table[V]) Get(id int) (v V, ok bool) {
	if id == empty {
		return t.emptyVal, t.hasEmpty
	}
	keys := t.keys
	mask := len(keys) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		switch keys[i] {
		case id:
			return t.vals[i], true
		case empty:
			return v, false
		}
	}
}

// Put stores v under id, replacing what was there.
func (t *Table[V]) Put(id int, v V) {
	if id == empty {
		t.hasEmpty, t.emptyVal = true, v
		return
	}
	mask := len(t.keys) - 1
	i := t.home(id)
	for ; t.keys[i] != empty; i = (i + 1) & mask {
		if t.keys[i] == id {
			t.vals[i] = v
			return
		}
	}
	if 2*(t.n+1) > len(t.keys) {
		t.rehash(2 * len(t.keys))
		mask = len(t.keys) - 1
		for i = t.home(id); t.keys[i] != empty; i = (i + 1) & mask {
		}
	}
	t.keys[i], t.vals[i] = id, v
	t.n++
}

// Remove deletes id's entry, if any.
func (t *Table[V]) Remove(id int) {
	var zero V
	if id == empty {
		t.hasEmpty, t.emptyVal = false, zero
		return
	}
	mask := len(t.keys) - 1
	i := t.home(id)
	for ; t.keys[i] != id; i = (i + 1) & mask {
		if t.keys[i] == empty {
			return
		}
	}
	// Backward-shift: close the gap with every later entry of the run
	// that probes from at or before it, so no tombstone is left and a
	// lookup still stops at the first free slot.
	for j := (i + 1) & mask; t.keys[j] != empty; j = (j + 1) & mask {
		if (j-t.home(t.keys[j]))&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	t.keys[i], t.vals[i] = empty, zero
	t.n--
	if len(t.keys) > minSlots && 8*t.n < len(t.keys) {
		t.rehash(len(t.keys) / 2)
	}
}

// rehash moves every entry into a fresh array of the given size.
func (t *Table[V]) rehash(slots int) {
	keys, vals := t.keys, t.vals
	t.alloc(slots)
	mask := slots - 1
	for j, id := range keys {
		if id == empty {
			continue
		}
		i := t.home(id)
		for ; t.keys[i] != empty; i = (i + 1) & mask {
		}
		t.keys[i], t.vals[i] = id, vals[j]
	}
}

// Each calls f for every entry, in slot order: unspecified, but the same
// for the same sequence of operations. f must not modify the table.
func (t *Table[V]) Each(f func(id int, v V)) {
	if t.hasEmpty {
		f(empty, t.emptyVal)
	}
	for i, id := range t.keys {
		if id != empty {
			f(id, t.vals[i])
		}
	}
}
