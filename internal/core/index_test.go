package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"github.com/qoslab/amf/internal/stream"
)

// The lookup of shardIndex.row has no hash table to consult: it counts
// set bits in rank words over the shard's id range, or, for a shard too
// sparse for them, searches the shard's own ids; both rely on the ids
// being strictly ascending and all ≡ the shard number mod
// viewShardCount. The tests below hold both paths to a map from id to row
// over every id shape a view can meet, and FuzzShardRow to a linear scan
// over any set of ints.

// shardIDsInvariant reports the first way ids breaks what row relies on
// for shard si: strictly ascending, each id in shard si.
func shardIDsInvariant(ids []int, si int) error {
	for r, id := range ids {
		if shardOf(id) != si {
			return fmt.Errorf("shard %d row %d holds id %d of shard %d", si, r, id, shardOf(id))
		}
		if r > 0 && ids[r-1] >= id {
			return fmt.Errorf("shard %d ids not strictly ascending at row %d: %d then %d", si, r, ids[r-1], id)
		}
	}
	return nil
}

// inShard returns the ids of shard si whose quotients are qs, sorted and
// without repeats, as a reshape lays them out.
func inShard(si int, qs []int) []int {
	ids := make([]int, len(qs))
	for i, q := range qs {
		ids[i] = q<<viewShardShift | si
	}
	return sortedSet(ids)
}

// checkRows holds the index of ids to a map from id to row: every id is
// found at its row, and every probe — each id's neighbours in the shard,
// the ids below the first and above the last, and extra — is found
// exactly when the map has it.
func checkRows(t *testing.T, what string, x *shardIndex, extra ...int) {
	t.Helper()
	ref := make(map[int]int, len(x.ids))
	for r, id := range x.ids {
		ref[id] = r
	}
	probes := slices.Clone(extra)
	for _, id := range x.ids {
		// Wrapping at ±2⁶³ keeps the probe in the shard: it is then an id
		// of the far end of the range, absent unless the set holds it.
		probes = append(probes, id, id-viewShardCount, id+viewShardCount, id-2*viewShardCount, id+2*viewShardCount)
	}
	for _, id := range probes {
		want, present := ref[id]
		if got, ok := x.row(id); ok != present || (ok && got != want) {
			t.Fatalf("%s: row(%d) = %d, %v; want %d, %v", what, id, got, ok, want, present)
		}
	}
}

// TestShardRowMatchesMap: row agrees with a map from id to row on dense
// shards, shards with churn holes on either side of the density below
// which no rank words are kept, sparse ids of either sign up to the ends
// of int, empty, one-row and whole-page shards, and the shards of views
// built, refreshed through joins and leaves, and refreshed into recycled
// pages; so does search, on every one of the hand-made shapes. An id
// below the first, above the last, in a hole or of another shard is
// absent.
func TestShardRowMatchesMap(t *testing.T) {
	quotients := func(lo, n int, keep func(q int) bool) []int {
		var qs []int
		for q := lo; q < lo+n; q++ {
			if keep(q) {
				qs = append(qs, q)
			}
		}
		return qs
	}
	all := func(int) bool { return true }
	rng := rand.New(rand.NewSource(38))
	for _, si := range []int{0, 1, 37, viewShardCount - 1} {
		shapes := map[string][]int{
			"dense":          inShard(si, quotients(0, 157, all)),
			"dense from 900": inShard(si, quotients(900, 157, all)),
			"every 7th gone": inShard(si, quotients(0, 183, func(q int) bool { return q%7 != 3 })),
			"97.5% gone":     inShard(si, quotients(0, 6000, func(q int) bool { return q%40 == 11 })),
			"99.5% gone":     inShard(si, quotients(0, 30000, func(q int) bool { return q%200 == 7 })),
			"empty":          nil,
			"one row":        inShard(si, []int{5}),
			"one page":       inShard(si, quotients(0, viewPageRows, all)),
			"three pages":    inShard(si, quotients(2, 3*viewPageRows, all)),
			"negative dense": inShard(si, quotients(-100, 157, all)),
		}
		sparse := []int{0, -1, 1, 1 << 56, -1 << 56, math.MaxInt >> viewShardShift, math.MinInt >> viewShardShift}
		for range 200 {
			q := rng.Int() >> viewShardShift
			if rng.Intn(2) == 0 {
				q = -q
			}
			sparse = append(sparse, q)
		}
		shapes["sparse"] = inShard(si, sparse)
		near := []int{1<<62>>viewShardShift - 3, 1<<62>>viewShardShift + 9, -1<<62>>viewShardShift - 2, -1<<62>>viewShardShift + 5}
		shapes["near ±2⁶²"] = inShard(si, near)
		for name, ids := range shapes {
			what := fmt.Sprintf("shard %d, %s", si, name)
			if err := shardIDsInvariant(ids, si); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			extra := []int{si, si - 1<<20, si + 1<<20, math.MinInt + si, math.MaxInt - (viewShardCount - 1) + si, si ^ 1, si + viewShardCount + 1}
			if len(ids) > 0 {
				x := newShardIndex(ids)
				if searched := name == "sparse" || name == "near ±2⁶²" || name == "99.5% gone"; searched != (x.rank == nil) {
					t.Fatalf("%s: %d rank words for %d ids", what, len(x.rank), len(ids))
				}
				checkRows(t, what, x, extra...)
			}
			checkRows(t, what+", searched", &shardIndex{ids: ids}, extra...)
		}
	}
	checkRows(t, "emptyIndex", emptyIndex, 0, -1, 1, math.MinInt, math.MaxInt)

	// Views: built, then refreshed through joins (into holes, below the
	// first id and past the last) and leaves, then refreshed into the
	// pages Recycle handed back.
	cfg := DefaultConfig(-0.007, 0, 20)
	cfg.Expiry = 0
	m := MustNew(cfg)
	at := time.Duration(0)
	observe := func(services ...int) {
		for _, s := range services {
			at += time.Millisecond
			m.Observe(stream.Sample{Time: at, User: 0, Service: s, Value: 1 + float64(s&7)})
		}
	}
	for s := 0; s < 3000; s++ {
		if s%7 != 3 {
			observe(s)
		}
	}
	observe(-5, -64*9, 1<<40, -1<<40+3)
	checkView := func(v *PredictView, when string) {
		t.Helper()
		for si := range v.services.shards {
			x := v.services.shards[si].idx
			if err := shardIDsInvariant(x.ids, si); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			checkRows(t, fmt.Sprintf("%s: shard %d", when, si), x)
		}
		m.services.Each(func(id int, _ *entity) {
			if !v.KnowsService(id) {
				t.Fatalf("%s: the view does not know service %d", when, id)
			}
		})
		if v.NumServices() != m.NumServices() {
			t.Fatalf("%s: view holds %d services, model %d", when, v.NumServices(), m.NumServices())
		}
	}
	v := m.BuildView()
	checkView(v, "BuildView")
	observe(3, 10, 3001, 5000, -1<<50)
	for _, s := range []int{0, 64, 100, 2999, 1 << 40} {
		m.RemoveService(s)
	}
	v = m.RefreshView(v)
	checkView(v, "RefreshView with joins and leaves")
	for round := range 5 {
		m.Recycle(nil, v, 0)
		observe(17+7*round, 6000+round, 1+round)
		m.RemoveService(200 + round)
		v = m.RefreshView(v)
		checkView(v, fmt.Sprintf("refresh %d after Recycle", round))
	}
}

// FuzzShardRow holds row, and search beside it, to a linear scan of the
// shard's ids over fuzzer-chosen id sets and probe ids. The set is any
// ints, masked into one shard, sorted and deduplicated as a reshape
// leaves them; with gaps, it is instead a walk from the first of them
// by steps of 1–64 ids of the shard, one byte each, which straddles the
// density below which the shard keeps no rank words.
//
//	go test -run=NONE -fuzz='^FuzzShardRow$' -fuzztime=10s ./internal/core/
func FuzzShardRow(f *testing.F) {
	le := func(xs ...int) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		}
		return b
	}
	f.Add(uint8(0), le(0, 64, 128, 192), false, int64(64))
	f.Add(uint8(5), le(5, 69, 197, 261, 645), false, int64(133))
	f.Add(uint8(63), le(math.MaxInt, math.MinInt, -1, 0), false, int64(math.MaxInt))
	f.Add(uint8(9), le(1<<62, -1<<62, 1<<61), false, int64(-1<<62))
	f.Add(uint8(0), []byte{}, false, int64(0))
	f.Add(uint8(3), append(le(-1000), 0, 0, 1, 0, 6, 0, 63, 0, 0), true, int64(-1000+64*3))
	f.Add(uint8(62), append(le(math.MaxInt-5000), 40, 50, 60, 63, 63, 20), true, int64(math.MaxInt))
	f.Fuzz(func(t *testing.T, shard uint8, raw []byte, gaps bool, probe int64) {
		if len(raw) > 8*512 || gaps && len(raw) > 8+511 { // at most 512 ids
			return
		}
		si := int(shard) & (viewShardCount - 1)
		var ids []int
		if gaps && len(raw) >= 8 {
			id := int(binary.LittleEndian.Uint64(raw))&^(viewShardCount-1) | si
			for _, g := range raw[8:] {
				ids = append(ids, id)
				id += (1 + int(g&63)) << viewShardShift // wraps past MaxInt: sortedSet reorders
			}
			ids = append(ids, id)
		}
		for ; !gaps && len(raw) >= 8; raw = raw[8:] {
			ids = append(ids, int(binary.LittleEndian.Uint64(raw))&^(viewShardCount-1)|si)
		}
		ids = sortedSet(ids)
		x := emptyIndex
		if len(ids) > 0 {
			x = newShardIndex(ids)
		}
		scan := func(id int) (int, bool) {
			for r, at := range x.ids {
				if at == id {
					return r, true
				}
			}
			return 0, false
		}
		p := int(probe)
		probes := []int{p, p&^(viewShardCount-1) | si}
		for _, id := range x.ids {
			probes = append(probes, id, id-viewShardCount, id+viewShardCount, id+1)
		}
		for _, id := range probes {
			want, wantOK := scan(id)
			if got, ok := x.row(id); ok != wantOK || (ok && got != want) {
				t.Fatalf("row(%d) = %d, %v; a scan of %v finds %d, %v", id, got, ok, x.ids, want, wantOK)
			}
			if got, ok := x.search(id); ok != wantOK || (ok && got != want) {
				t.Fatalf("search(%d) = %d, %v; a scan of %v finds %d, %v", id, got, ok, x.ids, want, wantOK)
			}
		}
	})
}

// TestViewHeaderSize pins what a publish allocates for the view header:
// a shard stays two words of index pointer and page slice, and the
// PredictView holding 128 of them stays in the runtime's 4,864-byte size
// class (the one after 4,096). An index inlined into the shard as a slice
// header would add 16 bytes a shard, 2 KB a view, on every write.
func TestViewHeaderSize(t *testing.T) {
	if got := unsafe.Sizeof(viewShard{}); got > 32 {
		t.Errorf("viewShard is %d bytes, want at most 32", got)
	}
	if got := unsafe.Sizeof(PredictView{}); got <= 4096 || got > 4864 {
		t.Errorf("PredictView is %d bytes, outside the (4096, 4864] size class", got)
	}
}
