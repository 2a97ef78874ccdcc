package core

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
// of once per request — the entire point of coalescing. out[i] is
// bit-identical to what TopKAll(q.User, q.K, q.LowerIsBetter, 1) returns
// for queries[i] (nil for unknown users or K <= 0): the batch is the
// serial scan with its loops exchanged — pages outside, queries inside —
// so every query has the same scanPage calls in the same order, each
// against the bound of that query's own heap.
func (v *PredictView) TopKAllBatch(queries []RankQuery) [][]Ranked {
	out := make([][]Ranked, len(queries))
	type liveQuery struct {
		qi    int // index into queries/out
		u     viewEntity
		k     int
		lower bool
		h     []scored
		sc    *rankScratch
	}
	live := make([]liveQuery, 0, len(queries))
	for qi, q := range queries {
		u, ok := v.users.get(q.User)
		k := min(q.K, v.services.count)
		if !ok || k <= 0 {
			continue
		}
		sc := rankScratchPool.Get().(*rankScratch)
		live = append(live, liveQuery{qi: qi, u: u, k: k, lower: q.LowerIsBetter, h: sc.heap[:0], sc: sc})
	}
	for si := range v.services.shards {
		sh := &v.services.shards[si]
		for pi, p := range sh.pages {
			ids := sh.idx.pageIDs(pi)
			for li := range live {
				lq := &live[li]
				lq.h = scanPage(p, ids, lq.u, lq.h, lq.sc, lq.k, lq.lower)
			}
		}
	}
	for li := range live {
		lq := &live[li]
		out[lq.qi] = drainInto(nil, lq.h, lq.lower, v.tr)
		lq.sc.release(lq.h)
	}
	return out
}
