package core

import "github.com/qoslab/amf/internal/matrix"

// RankQuery is one full-catalog ranking request inside a coalesced
// batch (TopKAllBatch): rank every service in the view for User, keep
// the best K, ordered per LowerIsBetter. The rt/tp metrics share one
// key space (the raw latent product), so queries with opposite
// directions coexist in one batch — only their heaps differ.
type RankQuery struct {
	User          int
	K             int
	LowerIsBetter bool
}

// TopKAllBatch executes several full-catalog rankings in one blocked
// pass over the service pages — the GEMM-shaped kernel behind
// request-coalesced /rank (ISSUE 8). The page is the scan block: a few
// KiB of factors that stay cache-resident while every query's products
// stream over them, so page bytes come from DRAM once per batch instead
// of once per request — the entire point of coalescing.
// (BenchmarkMulBatch in internal/matrix measures exactly this
// blocked-vs-independent traversal.) out[i] is bit-identical to what
// TopKAll(q.User, q.K, q.LowerIsBetter, 1) returns for queries[i] (nil
// for unknown users or K <= 0): every row's key comes from the same
// batch kernel — whose per-row results are invariant to block splits
// (the bit-identity contract in matrix/kernels.go) — and rows feed each
// query's bounded heap in the same shard-then-row order as the serial
// scan.
func (v *PredictView) TopKAllBatch(queries []RankQuery) [][]Ranked {
	out := make([][]Ranked, len(queries))
	rank := v.cfg.Rank
	type liveQuery struct {
		qi    int // index into queries/out
		k     int
		lower bool
		h     []scored
		sc    *rankScratch
	}
	live := make([]liveQuery, 0, len(queries))
	var packed []viewEntity
	for qi, q := range queries {
		u, ok := v.users.get(q.User)
		if !ok || q.K <= 0 {
			continue
		}
		k := q.K
		if k > v.services.count {
			k = v.services.count
		}
		if k == 0 {
			continue
		}
		sc := rankScratchPool.Get().(*rankScratch)
		live = append(live, liveQuery{qi: qi, k: k, lower: q.LowerIsBetter, h: sc.heap[:0], sc: sc})
		packed = append(packed, u)
	}
	if len(live) == 0 {
		return out
	}
	nq := len(live)

	// Pack the query vectors contiguously and size the per-page score
	// matrix, in the view's precision. The batch scratch holds both so
	// a warmed pool serves steady-state batches with zero allocations.
	batch := rankScratchPool.Get().(*rankScratch)
	f32 := v.f32
	if f32 {
		if cap(batch.qs32) < nq*rank {
			batch.qs32 = make([]float32, nq*rank)
		}
		if cap(batch.dst32) < nq*viewPageRows {
			batch.dst32 = make([]float32, nq*viewPageRows)
		}
		for li, u := range packed {
			copy(batch.qs32[li*rank:(li+1)*rank], u.vec32)
		}
	} else {
		if cap(batch.qs) < nq*rank {
			batch.qs = make([]float64, nq*rank)
		}
		if cap(batch.dst) < nq*viewPageRows {
			batch.dst = make([]float64, nq*viewPageRows)
		}
		for li, u := range packed {
			copy(batch.qs[li*rank:(li+1)*rank], u.vec)
		}
	}

	for si := range v.services.shards {
		sh := &v.services.shards[si]
		for pi, p := range sh.pages {
			ids := sh.idx.pageIDs(pi)
			n := len(ids)
			if f32 {
				dst := batch.dst32[:nq*n]
				matrix.MulBatch32(dst, p.vecs32, batch.qs32[:nq*rank], rank)
				for li := range live {
					lq := &live[li]
					for i, key := range dst[li*n : (li+1)*n] {
						lq.h = heapPush(lq.h, scored{service: ids[i], key: float64(key)}, lq.k, lq.lower)
					}
				}
			} else {
				dst := batch.dst[:nq*n]
				matrix.MulBatch(dst, p.vecs, batch.qs[:nq*rank], rank)
				for li := range live {
					lq := &live[li]
					for i, key := range dst[li*n : (li+1)*n] {
						lq.h = heapPush(lq.h, scored{service: ids[i], key: key}, lq.k, lq.lower)
					}
				}
			}
		}
	}
	rankScratchPool.Put(batch)

	for li := range live {
		lq := &live[li]
		out[lq.qi] = drainInto(make([]Ranked, 0, len(lq.h)), lq.h, lq.lower, v.tr)
		lq.sc.heap = lq.h[:0]
		rankScratchPool.Put(lq.sc)
	}
	return out
}
