package core

import (
	"math/bits"
	"slices"

	"github.com/qoslab/amf/internal/matrix"
)

// viewPageRows is the height of one factor page. A refresh copies one
// page per touched row, so shorter pages publish cheaper — but copied
// pages land wherever the allocator has room, and a full-catalog scan
// over many small scattered blocks pays a cache and TLB miss per block
// that one contiguous block per shard never did. Measured at rank 10 on
// a 20k-service view after 4000 64-sample refreshes (so every page has
// been copied many times), when blocks were float64: the scan takes
// 142 µs at 16 rows, 137 µs at 32 and 123 µs at 64, against 121 µs
// contiguous; end to end the full-catalog rank is 25%, 14% and 3%
// slower. 64 rows keeps the read path level with a contiguous layout.
// A page is eight dimension-major 8-row groups (viewPage), and
// matrix.WalkPages32 scores and filters a shard's pages one full page at
// a time, so the height is matrix.PageRows, the width of its mask.
// At rank 10 a page is a 2.5 KB float32 block plus 1 KB of meta, and a
// 64-sample publish over 20k services copies 65 of them. Into freshly
// allocated pages that is 85–120 µs, 0.24 MB and 162 allocations
// (BenchmarkRefreshView's fresh arm, -cpu=1): the time is the
// allocator's — clearing and handing out 3.5 KB blocks — not the copy.
// With the Recycle the engine makes when no reader pins the view a
// publish replaced (the recycled arm), a page's copy goes into its twin —
// the page it replaced, which lacks only the rows the page's own publish
// froze (pageMeta.twin) — and the publish allocates the view header
// alone, ≈ 5 KB in one object:
// 13–15 µs at 20k services where whole-page copies into recycled spares
// took 24–25 µs and 16 KB in 49 objects (alternating runs on a 2-vCPU
// x86-64 host).
const (
	viewPageShift = 6
	viewPageRows  = 1 << viewPageShift
)

// pageOf splits a shard row number into its page and the row's offset
// within that page.
func pageOf(r int) (pi, o int) { return r >> viewPageShift, r & (viewPageRows - 1) }

// shardIndex is the membership of one view shard: which entities it
// holds, in row order, and the rank words that find an id's row. It is
// immutable once built and shared by pointer between consecutive views
// for as long as the shard's membership is unchanged — steady-state SGD
// updates change factors, not membership, so a refresh normally copies
// no index at all.
//
// Every id of a shard is ≡ the shard number mod viewShardCount, so the
// shard's ids are first + b·viewShardCount for distinct b ≥ 0. Rank word
// b>>6 has bit b&63 set for each such b, and counts in before the rows
// of all earlier words: an id's row is that count plus the set bits
// below its own, one load and a popcount however many ids left the
// shard. The words cover the shard's id range, not its rows, so they
// are built only while they take at most four times the memory of ids,
// 32 bytes a row (the id → row hash table they replaced took ≈ 39): while
// the range is at most 128 times the rows. A shard sparser than that
// (ids drawn from all of int, or a registry's after more than 99% of
// the ids it issued have left) leaves rank nil and searches ids
// (DESIGN.md "Rank-word lookup").
type shardIndex struct {
	ids   []int // entity IDs, strictly ascending: row r holds ids[r]
	first int   // ids[0]
	rank  []rankWord
}

// rankWord covers 64 consecutive ids of a shard's range: bit o is set
// when the shard holds the o-th of them, and before counts the shard's
// rows below the first.
type rankWord struct {
	bits   uint64
	before int
}

// emptyIndex is the index of every shard that holds nothing, so that no
// reader has to test a shard's index for nil.
var emptyIndex = new(shardIndex)

// newShardIndex indexes ids, which must be non-empty, strictly ascending
// and all in one shard.
func newShardIndex(ids []int) *shardIndex {
	x := &shardIndex{ids: ids, first: ids[0]}
	// Quotients of any two ints differ by less than 2⁵⁸: no overflow.
	span := ids[len(ids)-1]>>viewShardShift - x.first>>viewShardShift + 1
	words := (span + 63) >> 6
	if words > 2*len(ids) {
		return x
	}
	x.rank = make([]rankWord, words)
	for _, id := range ids {
		b := (id - x.first) >> viewShardShift
		x.rank[b>>6].bits |= 1 << (b & 63)
	}
	before := 0
	for i := range x.rank {
		x.rank[i].before = before
		before += bits.OnesCount64(x.rank[i].bits)
	}
	return x
}

// row returns the row id occupies in the shard.
func (x *shardIndex) row(id int) (int, bool) {
	if x.rank == nil {
		return x.search(id)
	}
	// id − first wraps to more than the range for an id below first, and
	// is off a multiple of viewShardCount for an id of another shard.
	d := uint(id - x.first)
	b := d >> viewShardShift
	if d&(viewShardCount-1) != 0 || b >= uint(len(x.rank))<<6 {
		return 0, false
	}
	w := &x.rank[b>>6]
	bit := uint64(1) << (b & 63)
	return w.before + bits.OnesCount64(w.bits&(bit-1)), w.bits&bit != 0
}

// search finds id's row in a shard without rank words: the last row
// whose quotient id>>viewShardShift is at most id's, found in log₂ of
// the shard's rows by halvings that step by the sign of a quotient
// difference, not by a branch a random lookup would mispredict one time
// in two, then a check that the row holds id itself.
func (x *shardIndex) search(id int) (int, bool) {
	ids := x.ids
	if len(ids) == 0 {
		return 0, false
	}
	q, lo := id>>viewShardShift, 0
	for n := len(ids); n > 1; {
		half := n >> 1
		lo += half &^ ((q - ids[lo+half]>>viewShardShift) >> 63)
		n -= half
	}
	return lo, ids[lo] == id
}

// pageIDs returns the ids of the rows held by the shard's page pi.
func (x *shardIndex) pageIDs(pi int) []int {
	lo := pi << viewPageShift
	return x.ids[lo:min(lo+viewPageRows, len(x.ids))]
}

// viewPage is the frozen SoA image of up to viewPageRows consecutive
// rows of one shard: their latent factor vectors packed into one
// contiguous dimension-major block, plus the error trackers and update
// counts frozen at publish time. Block and meta reachable from a
// published view are not written while that view can still be read; a
// refresh that must change a row copies both first (copy-on-write) and
// shares every other page with the previous view by pointer. The copy
// goes into the page's twin when Model.Recycle gave it one, which needs
// only the rows the page's own publish froze; into a spare page, whole,
// when the model has one; and into a fresh allocation otherwise.
//
// The block is what makes candidate ranking a streaming problem instead
// of a pointer chase, and its layout is what makes the scan cheap: rows
// are kept in groups of matrix.GroupRows = 8, and within a group factor
// j of all eight rows is one run of eight floats, so row o's factor j is
// vecs[(o>>3)*8*rank + j*8 + (o&7)]. A full-catalog scan hands a
// shard's page slice to matrix.WalkPages32, which scores eight rows per
// vector multiply and add with no horizontal reduce and no tail, and
// compares the scores with the top-k bound before they leave the
// registers, page after page, until one has a survivor. A row's factors
// are a strided lane of the block (viewPage.lane); point reads (Predict,
// the candidate path) walk that lane with a scalar loop in the kernel's
// association (veDot), so they and the scan agree bit for bit. The cost
// is paid on random access: a rank-10 row spans five cache lines instead
// of one.
// Every block is allocated at full height, viewPageRows×rank, and the
// lanes past the last row of a shard's partial last page hold zeros.
// A viewPage itself is just the two references, held by value in the
// shard's page slice so the scan finds each block without dereferencing
// a header: the kernel steps from one page's vecs to the next by
// pageStride, so vecs stays the first field (TestScanLayout).
//
// The block is float32, the one precision a view is served in: freeze
// rounds the model's float64 factors once, at publish time, and every
// read path — point lookup, candidate list, page scan — computes on the
// rounded values. Training never sees the rounding (core.Model stays
// float64); DESIGN.md "Float32 pages" has the measured cost.
type viewPage struct {
	vecs []float32 // viewPageRows×rank, dimension-major in 8-row groups
	meta *pageMeta
}

// viewGroupRows is the height of a dimension-major row group: the lanes
// of one vector of the page kernel.
const viewGroupRows = matrix.GroupRows

// pageMeta is the per-row state of a page the rank scan never reads, and
// the writer's bookkeeping for reusing the page once no reader can reach
// it (Recycle): the version of the view that first published the page, so
// that a page a view that escaped its caller's bookkeeping could still
// reach is never reused; the rows that publish froze; and the page's twin.
// Readers read errs and updates only.
type pageMeta struct {
	born uint64
	// frozen has bit o set for each row o the publish that made the page
	// froze: the rows where it differs from the page it was copied from.
	frozen uint64
	// twin is that page, once Recycle has proved no reader can reach it.
	// It differs from this page in the frozen rows alone, so the publish
	// that must next copy this page brings the twin up to date row by row
	// (copyOnWrite) instead of copying a whole page. Only the writer
	// touches it.
	twin    viewPage
	errs    [viewPageRows]float64
	updates [viewPageRows]int
}

// replacedPage is a page of the previous view that a publish took the
// place of, and the meta of the page that took it by copy-on-write — nil
// when a reshape did, which copies rows to new places.
type replacedPage struct {
	old viewPage
	by  *pageMeta
}

// replacedSlice is a shard's page slice in the previous view that a
// publish took the place of: slot is where Recycle hands it back to, the
// model's spare slice for that shard, and born is a lower bound on the
// version that made it (the newest of its pages the publish replaced).
type replacedSlice struct {
	pages []viewPage
	slot  *[]viewPage
	born  uint64
}

// publish is one BuildView or RefreshView under way: the model whose spare
// pages, twins and slices it writes into first, and the view it builds,
// whose version stamps every page handed out and whose replaced lists
// collect what of the previous view the new one took the place of.
type publish struct {
	m *Model
	v *PredictView
}

// page returns a writable page: the most recently recycled spare if
// there is one (the warmest memory), a fresh allocation otherwise. Blocks
// are allocated at full height, so any spare fits any page; a spare's
// block still holds what its last page held.
func (pb publish) page() viewPage {
	var p viewPage
	if spare := pb.m.spare; len(spare) > 0 {
		p = spare[len(spare)-1]
		spare[len(spare)-1] = viewPage{}
		pb.m.spare = spare[:len(spare)-1]
	} else {
		p = viewPage{vecs: make([]float32, viewPageRows*pb.m.cfg.Rank), meta: new(pageMeta)}
	}
	p.meta.born, p.meta.frozen = pb.v.version, 0
	return p
}

// copyOnWrite returns a private, writable page holding what c, a page of
// the previous view, holds, and records c as replaced by it. With a twin,
// c's predecessor, only the rows c's own publish froze are copied into
// it; without one — c's predecessor was still pinned, escaped or left a
// reshape — all of c is copied into a spare or fresh page.
func (pb publish) copyOnWrite(c viewPage) viewPage {
	t := c.meta.twin
	if t.meta != nil {
		c.meta.twin = viewPage{}
		pb.m.twins--
		rank := pb.m.cfg.Rank
		for rows := c.meta.frozen; rows != 0; rows &= rows - 1 {
			o := bits.TrailingZeros64(rows)
			t.copyRow(o, c, o, rank)
		}
		t.meta.born, t.meta.frozen = pb.v.version, 0
	} else {
		t = pb.page()
		copy(t.vecs, c.vecs)
		t.meta.errs, t.meta.updates = c.meta.errs, c.meta.updates
	}
	pb.v.replaced = append(pb.v.replaced, replacedPage{c, t.meta})
	return t
}

// pageSlice returns a page slice of length n for a shard whose spare
// slice is slot: the spare when it is long enough, a fresh one otherwise.
func pageSlice(n int, slot *[]viewPage) []viewPage {
	if s := *slot; cap(s) >= n {
		*slot = nil
		return s[:n]
	}
	return make([]viewPage, n)
}

// lane returns row o's factors as a strided slice of the block: factor j
// is lane[j*viewGroupRows], and the slice ends at the last factor.
func (p viewPage) lane(o, rank int) []float32 {
	lo := o/viewGroupRows*viewGroupRows*rank + o%viewGroupRows
	hi := lo + (rank-1)*viewGroupRows + 1
	return p.vecs[lo:hi:hi]
}

// freeze writes the live entity's state into row o, rounding its factors
// to float32, marks the row as frozen by this page's publish, and marks
// the entity clean and served: what the page now holds is what the model
// holds, to float32, and readers can see it.
func (p viewPage) freeze(o int, e *entity) {
	lane := p.lane(o, len(e.vec))
	for j, x := range e.vec {
		lane[j*viewGroupRows] = float32(x)
	}
	p.meta.errs[o] = e.err.Value()
	p.meta.updates[o] = e.updates
	p.meta.frozen |= 1 << o
	e.dirty, e.unserved = false, false
}

// copyRow copies row fo of from into row o.
func (p viewPage) copyRow(o int, from viewPage, fo, rank int) {
	dst, src := p.lane(o, rank), from.lane(fo, rank)
	for j := 0; j < len(src); j += viewGroupRows {
		dst[j] = src[j]
	}
	p.meta.errs[o] = from.meta.errs[fo]
	p.meta.updates[o] = from.meta.updates[fo]
}

// clearFrom zeroes the lanes of rows o and after: the pad lanes of a
// shard's partial last page, which the scan scores and then ignores.
// Zeros keep a recycled page's block what a fresh one would be, and keep
// stale values out of the kernel, where a denormal would cost it a
// microcode assist per multiply.
func (p viewPage) clearFrom(o, rank int) {
	for ; o < viewPageRows; o++ {
		lane := p.lane(o, rank)
		for j := 0; j < len(lane); j += viewGroupRows {
			lane[j] = 0
		}
	}
}

// entity returns row o as a viewEntity aliasing the page's block.
func (p viewPage) entity(o, rank int) viewEntity {
	return viewEntity{lane: p.lane(o, rank), meta: p.meta, o: o}
}

// viewShard is one hash shard of a viewTable: the index plus the pages
// holding its rows, row r at pageOf(r). Every page is full except
// possibly the last.
type viewShard struct {
	idx   *shardIndex
	pages []viewPage
}

// touchedRow is one touched id as refresh found it: its entity in the
// model (nil once removed) and its row in the shard (-1 if absent).
type touchedRow struct {
	id int
	r  int
	e  *entity
}

// refresh brings the shard up to date with the live model shard given
// the ids touched since the shard was frozen (duplicates allowed),
// returning the change in its entity count. Each touched id is looked up
// once in the model and once in the index, and nothing else is read from
// the model. While membership is unchanged the index is kept and only
// the pages holding a touched row are copied and rewritten — O(touched
// rows), independent of the shard's size. An added or removed entity
// shifts rows, so that shard alone is reshaped, O(shard size). Building a
// view is the same thing from an empty shard with every id touched. slot
// is the model's spare page slice for the shard.
func (sh *viewShard) refresh(src *entityTable, touched []int, pb publish, slot *[]viewPage) int {
	rows := pb.m.touched[:0]
	reshape := false
	for _, id := range touched {
		e, _ := src.Get(id)
		r, inView := sh.idx.row(id)
		if !inView {
			r = -1
		}
		reshape = reshape || inView != (e != nil)
		rows = append(rows, touchedRow{id, r, e})
	}
	pb.m.touched = rows[:0] // the grown buffer, for the next shard
	before := len(sh.idx.ids)
	if reshape {
		sh.reshape(rows, pb, slot)
		for _, t := range rows {
			if t.e != nil {
				r, _ := sh.idx.row(t.id)
				pi, o := pageOf(r)
				sh.pages[pi].freeze(o, t.e)
			}
		}
	} else {
		sh.rewrite(rows, pb, slot)
	}
	clear(rows)
	return len(sh.idx.ids) - before
}

// rewrite freezes the touched rows of a shard whose membership is
// unchanged: the first row on a page of the previous view copies that
// page (copyOnWrite), and the first such page copies the page slice.
func (sh *viewShard) rewrite(rows []touchedRow, pb publish, slot *[]viewPage) {
	shared := sh.pages // the previous view's, until a page must be copied
	var born uint64    // the newest page of shared replaced; 0 while none is (versions start at 1)
	for _, t := range rows {
		if t.e == nil {
			continue // joined and left since the last publish
		}
		pi, o := pageOf(t.r)
		if c := shared[pi]; sh.pages[pi].meta == c.meta {
			if born == 0 {
				sh.pages = pageSlice(len(shared), slot)
				copy(sh.pages, shared)
			}
			born = max(born, c.meta.born)
			sh.pages[pi] = pb.copyOnWrite(c)
		}
		sh.pages[pi].freeze(o, t.e)
	}
	if born != 0 {
		pb.v.replacedSlices = append(pb.v.replacedSlices, replacedSlice{shared, slot, born})
	}
}

func sortedSet(ids []int) []int {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// reshape replaces the shard's index and pages for the membership rows
// imply: an id with an entity and no row joins, one with a row and no
// entity leaves. Every page is new, since rows shift, but the surviving
// rows are copied over from the old pages in order without consulting the
// model; rows of added entities are left for the caller to fill, and the
// pad lanes of a partial last page are cleared. Every old page, and the
// old page slice, is recorded as replaced.
func (sh *viewShard) reshape(rows []touchedRow, pb publish, slot *[]viewPage) {
	var added, removed []int
	for _, t := range rows {
		switch {
		case t.e != nil && t.r < 0:
			added = append(added, t.id)
		case t.e == nil && t.r >= 0:
			removed = append(removed, t.id)
		}
	}
	added, removed = sortedSet(added), sortedSet(removed)
	old := *sh
	var born uint64
	for _, p := range old.pages {
		born = max(born, p.meta.born)
		pb.v.replaced = append(pb.v.replaced, replacedPage{old: p})
	}
	if len(old.pages) > 0 {
		pb.v.replacedSlices = append(pb.v.replacedSlices, replacedSlice{old.pages, slot, born})
	}
	n := len(old.idx.ids) + len(added) - len(removed)
	if n == 0 {
		*sh = viewShard{idx: emptyIndex}
		return
	}
	rank := pb.m.cfg.Rank
	ids := make([]int, 0, n)
	pages := pageSlice((n+viewPageRows-1)>>viewPageShift, slot)
	for pi := range pages {
		pages[pi] = pb.page()
	}
	if _, o := pageOf(n); o != 0 {
		pages[len(pages)-1].clearFrom(o, rank)
	}
	place := func(id int) (viewPage, int) {
		pi, o := pageOf(len(ids))
		ids = append(ids, id)
		return pages[pi], o
	}
	for r, id := range old.idx.ids {
		for ; len(added) > 0 && added[0] < id; added = added[1:] {
			place(added[0])
		}
		if len(removed) > 0 && removed[0] == id {
			removed = removed[1:]
			continue
		}
		p, o := place(id)
		fpi, fo := pageOf(r)
		p.copyRow(o, old.pages[fpi], fo, rank)
	}
	for _, id := range added {
		place(id)
	}
	*sh = viewShard{idx: newShardIndex(ids), pages: pages}
}
