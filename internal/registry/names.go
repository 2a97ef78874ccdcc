package registry

import (
	"encoding/binary"
	"math"
)

// nameTable maps names to IDs. Each live name is stored once in arena,
// after a 12-byte little-endian header: its ID (8 bytes), its length (4).
// The index is an open-addressed slot array, a power of two in size, at
// most half full and probed linearly, as internal/idtab is: a slot is 32
// bits of the name's hash (the tag) above the 32-bit arena offset of the
// name's first byte, and 0 when free — no name starts before offset 12.
// A hit costs one hash, usually one slot and one compare of the bytes
// next to the ID it returns. The tag alone places an entry (its home is
// the tag's low bits), so resizing and backward-shift deletion never read
// a name. A deletion leaves its arena bytes dead; once they outnumber the
// live ones the arena is rewritten, so churn cannot grow it past twice the
// live bytes.
type nameTable struct {
	slots []uint64
	arena []byte
	n     int // live names
	dead  int // arena bytes, headers included, of names removed since the last rewrite
}

const (
	minNameSlots = 8
	nameHeader   = 12 // ID, then length
)

func newNameTable(n int) nameTable {
	slots := minNameSlots
	for slots < 2*n {
		slots <<= 1
	}
	return nameTable{slots: make([]uint64, slots)}
}

// home is the slot a tag probes from.
func (t *nameTable) home(tag uint32) int { return int(tag) & (len(t.slots) - 1) }

func tagOf(h uint64) uint32 { return uint32(h >> 32) }

// id returns the ID stored before the name at arena offset at.
func (t *nameTable) id(at uint32) int {
	return int(int64(binary.LittleEndian.Uint64(t.arena[at-nameHeader:])))
}

func (t *nameTable) nameLen(at uint32) uint32 {
	return binary.LittleEndian.Uint32(t.arena[at-4:])
}

// find probes for name, whose hash is h. It returns the slot holding the
// name and the name's arena offset, or, when the name is absent, offset 0
// and the free slot that ended the probe — where insert puts it.
func find[S ~string | ~[]byte](t *nameTable, name S, h uint64) (slot int, at uint32) {
	tag := tagOf(h)
	mask := len(t.slots) - 1
	for i := t.home(tag); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return i, 0
		}
		if uint32(s>>32) != tag {
			continue
		}
		p := uint32(s)
		if n := t.nameLen(p); int(n) == len(name) && string(t.arena[p:p+n]) == string(name) {
			return i, p
		}
	}
}

// insert adds name, absent from the table, under id at slot, the free
// slot find returned for it.
func (t *nameTable) insert(slot int, h uint64, name string, id int) {
	tag := tagOf(h)
	if 2*(t.n+1) > len(t.slots) {
		t.resize(2 * len(t.slots))
		slot = t.free(tag)
	}
	if len(t.arena)+nameHeader+len(name) > math.MaxUint32 {
		panic("registry: name arena past 4 GiB")
	}
	t.arena = binary.LittleEndian.AppendUint64(t.arena, uint64(id))
	t.arena = binary.LittleEndian.AppendUint32(t.arena, uint32(len(name)))
	at := len(t.arena)
	t.arena = append(t.arena, name...)
	t.slots[slot] = uint64(tag)<<32 | uint64(at)
	t.n++
}

// free returns the first free slot of tag's probe run.
func (t *nameTable) free(tag uint32) int {
	mask := len(t.slots) - 1
	i := t.home(tag)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// remove deletes the entry at slot.
func (t *nameTable) remove(slot int) {
	t.dead += nameHeader + int(t.nameLen(uint32(t.slots[slot])))
	// Backward shift: move each later entry of the run that probes from at
	// or before the gap into it, so lookups still stop at the first free
	// slot and no tombstone is left.
	mask := len(t.slots) - 1
	i := slot
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		if (j-t.home(uint32(t.slots[j]>>32)))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = 0
	t.n--
	if t.dead > len(t.arena)-t.dead {
		t.compact()
	}
	if len(t.slots) > minNameSlots && 8*t.n < len(t.slots) {
		t.resize(len(t.slots) / 2)
	}
}

// resize moves every slot into a fresh array of the given size.
func (t *nameTable) resize(size int) {
	old := t.slots
	t.slots = make([]uint64, size)
	for _, s := range old {
		if s != 0 {
			t.slots[t.free(uint32(s>>32))] = s
		}
	}
}

// compact rewrites the arena with the live names only, in slot order.
func (t *nameTable) compact() {
	arena := make([]byte, 0, len(t.arena)-t.dead)
	for i, s := range t.slots {
		if s == 0 {
			continue
		}
		at := uint32(s)
		end := at + t.nameLen(at)
		arena = append(arena, t.arena[at-nameHeader:end]...)
		t.slots[i] = s&^math.MaxUint32 | uint64(len(arena)-int(end-at))
	}
	t.arena, t.dead = arena, 0
}
