package core

import (
	"slices"

	"github.com/qoslab/amf/internal/idtab"
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
// At rank 10 a page is a 2.5 KB float32 block plus 1 KB of meta, and a
// 64-sample publish over 20k services copies 65 of them. Into freshly
// allocated pages that is 85–120 µs, 0.24 MB and 167 allocations
// (BenchmarkRefreshView's fresh arm, -cpu=1): the time is the
// allocator's — clearing and handing out 3.5 KB blocks — not the copy.
// Into pages a Recycle handed back (the recycled arm: what the engine does
// when no reader pins the view they came from) the same publish takes
// 28–35 µs and allocates 16 KB in 49 objects, the view header and the
// touched shards' page slices.
const (
	viewPageShift = 6
	viewPageRows  = 1 << viewPageShift
)

// pageOf splits a shard row number into its page and the row's offset
// within that page.
func pageOf(r int) (pi, o int) { return r >> viewPageShift, r & (viewPageRows - 1) }

// shardIndex is the membership of one view shard: which entities it
// holds and which row each one occupies. It is immutable once built and
// shared by pointer between consecutive views for as long as the shard's
// membership is unchanged — steady-state SGD updates change factors, not
// membership, so a refresh normally copies no index at all.
type shardIndex struct {
	ids  []int               // entity IDs, ascending: row r holds ids[r]
	rows *idtab.Table[int32] // id → r
}

// emptyIndex is the index of every shard that holds nothing, so that no
// reader has to test a shard's index for nil.
var emptyIndex = &shardIndex{rows: idtab.New[int32](0)}

// row returns the row id occupies in the shard.
func (x *shardIndex) row(id int) (int, bool) {
	r, ok := x.rows.Get(id)
	return int(r), ok
}

// pageIDs returns the ids of the rows held by the shard's page pi.
func (x *shardIndex) pageIDs(pi int) []int {
	lo := pi << viewPageShift
	return x.ids[lo:min(lo+viewPageRows, len(x.ids))]
}

// viewPage is the frozen SoA image of up to viewPageRows consecutive
// rows of one shard: their latent factor vectors packed into one
// contiguous row-major block, plus the error trackers and update counts
// frozen at publish time. Block and meta reachable from a published view
// are not written while that view can still be read; a refresh that must
// change a row copies both first (copy-on-write) and shares every other
// page with the previous view by pointer. The copy goes into a spare page
// when the model has one (Model.Recycle) and into a fresh allocation
// otherwise.
//
// The block is what makes candidate ranking a streaming problem instead
// of a pointer chase: a full-catalog scan feeds each page's block to the
// DotBatch32 kernel, and point lookups (Predict) return subslices of the
// same storage. A viewPage itself is just the two references, held by
// value in the shard's page slice so the scan finds each block without
// dereferencing a header.
//
// The block is float32, the one precision a view is served in: freeze
// rounds the model's float64 factors once, at publish time, and every
// read path — point lookup, candidate list, page scan — computes on the
// rounded values with the float32 kernels, so they agree bit for bit.
// Training never sees the rounding (core.Model stays float64); DESIGN.md
// "Float32 pages" has the measured cost.
type viewPage struct {
	vecs []float32 // rows×rank; row o is vecs[o*rank:(o+1)*rank]
	meta *pageMeta
}

// pageMeta is the per-row state of a page the rank scan never reads, and
// the version of the view that first published the page: Recycle keeps a
// page out of the spare list while a view that escaped its caller's
// bookkeeping could still reach it.
type pageMeta struct {
	errs    [viewPageRows]float64
	updates [viewPageRows]int
	born    uint64
}

// publish is one BuildView or RefreshView under way: the model whose spare
// pages it writes into first, and the view it builds, whose version stamps
// every page handed out and whose replaced list collects the pages of the
// previous view that a copy took the place of.
type publish struct {
	m *Model
	v *PredictView
}

// page returns a writable page with a block of n floats: the most
// recently recycled spare if there is one (the warmest memory), a fresh
// allocation otherwise. Blocks are allocated at full height, so any spare
// fits any page.
func (pb publish) page(n int) viewPage {
	var p viewPage
	if spare := pb.m.spare; len(spare) > 0 {
		p = spare[len(spare)-1]
		spare[len(spare)-1] = viewPage{}
		pb.m.spare = spare[:len(spare)-1]
		p.vecs = p.vecs[:n]
	} else {
		p = viewPage{vecs: make([]float32, n, viewPageRows*pb.m.cfg.Rank), meta: new(pageMeta)}
	}
	p.meta.born = pb.v.version
	return p
}

// clone returns a private, writable copy of p for copy-on-write, and
// records p as replaced.
func (pb publish) clone(p viewPage) viewPage {
	c := pb.page(len(p.vecs))
	copy(c.vecs, p.vecs)
	*c.meta = *p.meta
	c.meta.born = pb.v.version
	pb.v.replaced = append(pb.v.replaced, p)
	return c
}

// freeze writes the live entity's state into row o, rounding its factors
// to float32, and marks the entity clean and served: what the page now
// holds is what the model holds, to float32, and readers can see it.
func (p viewPage) freeze(o int, e *entity) {
	k := len(e.vec)
	row := p.vecs[o*k : (o+1)*k]
	for j, x := range e.vec {
		row[j] = float32(x)
	}
	p.meta.errs[o] = e.err.Value()
	p.meta.updates[o] = e.updates
	e.dirty, e.unserved = false, false
}

// copyRow copies row fo of from into row o.
func (p viewPage) copyRow(o int, from viewPage, fo, rank int) {
	copy(p.vecs[o*rank:(o+1)*rank], from.vecs[fo*rank:(fo+1)*rank])
	p.meta.errs[o] = from.meta.errs[fo]
	p.meta.updates[o] = from.meta.updates[fo]
}

// entity returns row o as a viewEntity aliasing the page's block.
func (p viewPage) entity(o, rank int) viewEntity {
	lo, hi := o*rank, (o+1)*rank
	return viewEntity{vec: p.vecs[lo:hi:hi], meta: p.meta, o: o}
}

// viewShard is one hash shard of a viewTable: the index plus the pages
// holding its rows, row r at pageOf(r). Every page is full except
// possibly the last.
type viewShard struct {
	idx   *shardIndex
	pages []viewPage
}

// refresh brings the shard up to date with the live model shard given
// the ids touched since the shard was frozen (duplicates allowed),
// returning the change in its entity count. Only the touched entities are
// read from the model. While membership is unchanged the index is kept
// and only the pages holding a touched row are copied and rewritten —
// O(touched rows), independent of the shard's size. An added or removed
// entity shifts rows, so that shard alone is reshaped, O(shard size).
// Building a view is the same thing from an empty shard with every id
// touched.
func (sh *viewShard) refresh(src *entityTable, touched []int, pb publish) int {
	var added, removed []int
	for _, id := range touched {
		_, inModel := src.Get(id)
		_, inView := sh.idx.row(id)
		switch {
		case inModel && !inView:
			added = append(added, id)
		case inView && !inModel:
			removed = append(removed, id)
		}
	}
	before := len(sh.idx.ids)
	shared := sh.pages // pages still aliasing the previous view's
	if len(added)+len(removed) > 0 {
		sh.reshape(sortedSet(added), sortedSet(removed), pb)
		shared = nil
	} else {
		sh.pages = slices.Clone(shared)
	}
	for _, id := range touched {
		e, ok := src.Get(id)
		if !ok {
			continue // removed
		}
		r, _ := sh.idx.row(id)
		pi, o := pageOf(r)
		if shared != nil && sh.pages[pi].meta == shared[pi].meta {
			sh.pages[pi] = pb.clone(shared[pi])
		}
		sh.pages[pi].freeze(o, e)
	}
	return len(sh.idx.ids) - before
}

func sortedSet(ids []int) []int {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// reshape replaces the shard's index and pages for a changed membership;
// added and removed are ascending and duplicate-free. Every page is new,
// since rows shift, but the surviving rows are copied over from the old
// pages in order without consulting the model; rows of added entities
// are left for the caller to fill. Every old page is recorded as replaced.
func (sh *viewShard) reshape(added, removed []int, pb publish) {
	old := *sh
	pb.v.replaced = append(pb.v.replaced, old.pages...)
	n := len(old.idx.ids) + len(added) - len(removed)
	if n == 0 {
		*sh = viewShard{idx: emptyIndex}
		return
	}
	rank := pb.m.cfg.Rank
	idx := &shardIndex{ids: make([]int, 0, n), rows: idtab.New[int32](n)}
	pages := make([]viewPage, (n+viewPageRows-1)>>viewPageShift)
	for pi := range pages {
		pages[pi] = pb.page(min(viewPageRows, n-pi<<viewPageShift) * rank)
	}
	place := func(id int) (viewPage, int) {
		pi, o := pageOf(len(idx.ids))
		idx.rows.Put(id, int32(len(idx.ids)))
		idx.ids = append(idx.ids, id)
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
	*sh = viewShard{idx: idx, pages: pages}
}
