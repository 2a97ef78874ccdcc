package core

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"github.com/qoslab/amf/internal/matrix"
	"github.com/qoslab/amf/internal/transform"
)

// nan marks "no prediction" entries in PredictBatch output.
var nan = math.NaN()

// This file is the vectorized candidate-ranking fast path (ISSUE 3): the
// paper's runtime-adaptation query "rank these n candidate services for
// user u, best k first" served from a PredictView's frozen factor pages
// with zero steady-state allocations. The cost is n inner products plus
// a vector compare of each block of keys against the current k-th best
// (selectRows); only a candidate that survives the compare pays O(log k)
// heap work — about k·(1+ln(n/k)) of them when keys arrive in no
// particular order, all n in the worst case (keys arriving best-last) —
// and draining the k survivors costs O(k log k).
//
// Ordering is defined on the raw latent inner product Ui·Sj (the "key"),
// not the final transformed value: Sigmoid and Transformer.Backward are
// both monotone non-decreasing, so ranking by key ranks by predicted
// value — and the key is strictly finer (Backward's range clamps can
// collapse distinct keys to equal values). Ties on the key break by
// ascending service ID, making every ranking deterministic regardless of
// candidate order. Model.RankServices applies the same rule to its own
// float64 keys; a view's keys are float32 products of float32-rounded
// factors, so the two rankings agree on every exact tie and wherever the
// model's keys are further apart than that rounding (~1e-5 relative;
// rankedNearModel in precision_test.go is the exact statement), not
// element for element. Only the surviving k results pay the
// Sigmoid+Backward transform.

// scored is one candidate during selection: service ID and raw inner
// product key.
type scored struct {
	service int
	key     float64
}

// betterScored reports whether a ranks strictly ahead of b: smaller key
// first when lowerIsBetter (response time), larger key first otherwise
// (throughput), ties broken by ascending service ID.
func betterScored(a, b scored, lowerIsBetter bool) bool {
	if a.key != b.key {
		if lowerIsBetter {
			return a.key < b.key
		}
		return a.key > b.key
	}
	return a.service < b.service
}

// rankScratch is the pooled per-ranking working set: the bounded top-k
// heap and one block's worth of scores (and, on the candidate path,
// their ids) for selectRows. Pooled via pointer so the steady-state rank
// path performs zero allocations after warmup.
type rankScratch struct {
	heap []scored
	ids  [viewPageRows]int
	vals [viewPageRows]float32
}

var rankScratchPool = sync.Pool{New: func() any { return new(rankScratch) }}

// maxPooledHeap bounds the heap a pooled scratch may keep: a k = n
// ranking (TopK with k = len(candidates)) grows it to 16 B × n, which the
// k = 10 requests that reuse the scratch would pin for nothing.
const maxPooledHeap = 4096

// release returns sc to the pool with h, the heap it lent out, emptied —
// or without it when h outgrew maxPooledHeap.
func (sc *rankScratch) release(h []scored) {
	if cap(h) > maxPooledHeap {
		h = nil
	}
	sc.heap = h[:0]
	rankScratchPool.Put(sc)
}

// heapPush inserts c into the bounded worst-at-root heap h (cap k): h's
// root is the worst element kept so far, so a push on a full heap
// replaces the root only when c beats it. Returns the updated heap.
func heapPush(h []scored, c scored, k int, lowerIsBetter bool) []scored {
	if len(h) < k {
		h = append(h, c)
		// Sift up: a parent must be worse than (or equal to) its children.
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !betterScored(h[p], h[i], lowerIsBetter) {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		return h
	}
	if !betterScored(c, h[0], lowerIsBetter) {
		return h // not better than the worst kept — discard
	}
	h[0] = c
	heapSiftDown(h, 0, lowerIsBetter)
	return h
}

// heapSiftDown restores the worst-at-root property from index i.
func heapSiftDown(h []scored, i int, lowerIsBetter bool) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		w := l // index of the worst child
		if r := l + 1; r < len(h) && betterScored(h[l], h[r], lowerIsBetter) {
			w = r
		}
		if !betterScored(h[i], h[w], lowerIsBetter) {
			return // parent already worse than both children
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// heapDrain empties h into out[0:len(h)] best-first (heap-sort pop order
// is worst-first, so positions fill back to front). h is consumed; out
// may alias h's backing array — each out[i] is written only after the
// live heap has shrunk past index i.
func heapDrain(h []scored, out []scored, lowerIsBetter bool) {
	for i := len(h) - 1; i >= 0; i-- {
		root := h[0]
		last := len(h) - 1 // == i
		h[0] = h[last]
		h = h[:last]
		heapSiftDown(h, 0, lowerIsBetter)
		out[i] = root
	}
}

// selectRows offers one block of scored rows — ids[i] with key keys[i],
// at most viewPageRows of them — to the bounded heap h (cap k >= 1) and
// returns the updated heap. It is the only caller of heapPush: every
// selection loop (page scan, candidate list) feeds it blocks. Keys are
// the float32 the dot kernels produce; the heap holds them widened, which
// is exact, so its k-th key narrows back to the float32 bound Survivors
// compares against.
//
// Once the heap is full its root holds the k-th best key seen so far,
// and a row whose key is strictly worse than that can never be admitted.
// matrix.Survivors marks those rows for the whole block in a few vector
// compares and the loop visits only the others: better keys, ties (the
// id tie-break is heapPush's to decide), and anything compared with a
// NaN, which is never "strictly worse". Each push tightens the bound, so
// a row the mask let through is compared again with the current root.
// Both filters drop only rows heapPush would have dropped, which is why
// the ranking is the one pushing every row would give.
func selectRows(h []scored, ids []int, keys []float32, k int, lowerIsBetter bool) []scored {
	keys = keys[:len(ids)]
	m := ^uint64(0) >> (64 - len(ids)) // every row, while the heap fills
	if len(h) == k {
		m = matrix.Survivors(keys, float32(h[0].key), lowerIsBetter)
	}
	for ; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		c := scored{service: ids[i], key: float64(keys[i])}
		if len(h) == k {
			if worst := h[0].key; c.key > worst && lowerIsBetter || c.key < worst && !lowerIsBetter {
				continue
			}
		}
		if testHookPush != nil {
			testHookPush()
		}
		h = heapPush(h, c, k, lowerIsBetter)
	}
	return h
}

// testHookPush, when a test sets it, is called for every row selectRows
// hands to heapPush: how many that is, not how long it takes, is what
// TestSelectionPushBound holds the filter to.
var testHookPush func()

// finish converts best-first scored entries into Ranked values by
// applying the monotone Sigmoid+Backward transform — paid only for the
// k survivors, never for the full candidate set.
func finishRanked(dst []Ranked, sc []scored, tr *transform.Transformer) []Ranked {
	for _, s := range sc {
		dst = append(dst, Ranked{Service: s.service, Value: tr.Backward(transform.Sigmoid(s.key))})
	}
	return dst
}

// selectCandidates scores the candidates the view knows against u and
// offers them to the bounded heap h (k <= 0 scores nothing). Candidates
// absent from the view are appended to *unknown in candidate order.
func (v *PredictView) selectCandidates(h []scored, sc *rankScratch, u viewEntity, candidates []int, k int, lowerIsBetter bool, unknown *[]int) []scored {
	n := 0
	for _, c := range candidates {
		s, ok := v.services.get(c)
		if !ok {
			*unknown = append(*unknown, c)
			continue
		}
		if k <= 0 {
			continue
		}
		sc.ids[n], sc.vals[n] = c, matrix.Dot32(u.vec, s.vec)
		if n++; n == len(sc.ids) {
			h = selectRows(h, sc.ids[:], sc.vals[:], k, lowerIsBetter)
			n = 0
		}
	}
	if n > 0 {
		h = selectRows(h, sc.ids[:n], sc.vals[:n], k, lowerIsBetter)
	}
	return h
}

// appendTopK appends the top k of candidates for user row u (best first)
// to dst, listing the candidates it could not score in *unknown. It is
// the allocation-free core of TopK: with dst capacity >= k and a warmed
// scratch pool the steady-state cost is one map lookup and one unrolled
// dot per candidate plus O(log k) heap work per admitted candidate — no
// allocations while every candidate is known.
func (v *PredictView) appendTopK(dst []Ranked, u viewEntity, candidates []int, k int, lowerIsBetter bool, unknown *[]int) []Ranked {
	if k > len(candidates) {
		k = len(candidates)
	}
	sc := rankScratchPool.Get().(*rankScratch)
	h := v.selectCandidates(sc.heap[:0], sc, u, candidates, k, lowerIsBetter, unknown)
	dst = drainInto(dst, h, lowerIsBetter, v.tr)
	sc.release(h)
	return dst
}

// drainInto sorts heap h best-first in place and appends the transformed
// results to dst.
func drainInto(dst []Ranked, h []scored, lowerIsBetter bool, tr *transform.Transformer) []Ranked {
	if len(h) == 0 {
		return dst
	}
	// Drain the heap into its own backing array (safe: see heapDrain).
	heapDrain(h, h, lowerIsBetter)
	return finishRanked(slices.Grow(dst, len(h)), h, tr)
}

// TopK returns the user's best k candidates in rank order plus the list
// of candidates without a prediction (unknown service — or every
// candidate, when the user is unknown): O(n log k) selection, with the
// value transform paid only for the k survivors; k = len(candidates)
// ranks them all. Because every prediction reads the same immutable
// view, a ranking is internally consistent — no mid-ranking model update
// can reorder it. Ties on the latent score break by ascending service ID
// (see the file comment), so rankings are deterministic, and agree with
// Model.RankServices to within the view's float32 rounding.
func (v *PredictView) TopK(user int, candidates []int, k int, lowerIsBetter bool) (ranked []Ranked, unknown []int) {
	u, ok := v.users.get(user)
	if !ok {
		return nil, append(unknown, candidates...)
	}
	ranked = v.appendTopK(nil, u, candidates, k, lowerIsBetter, &unknown)
	return ranked, unknown
}

// PredictBatch fills dst[i] with the predicted QoS value of (user,
// services[i]) against this single consistent view. dst must have
// len(services); entries for unknown services are set to NaN (use
// math.IsNaN to filter). It returns ErrUnknownUser — with dst fully
// NaN-filled — when the user is unknown. The batch shares one user-vector
// load and allocates nothing.
func (v *PredictView) PredictBatch(user int, services []int, dst []float64) error {
	if len(dst) != len(services) {
		panic("core: PredictBatch dst length mismatch")
	}
	u, ok := v.users.get(user)
	if !ok {
		for i := range dst {
			dst[i] = nan
		}
		return ErrUnknownUser
	}
	for i, id := range services {
		s, ok := v.services.get(id)
		if !ok {
			dst[i] = nan
			continue
		}
		dst[i] = v.tr.Backward(transform.Sigmoid(veDot(u, s)))
	}
	return nil
}

// ---------------------------------------------------------------------------
// Full-catalog scans.

// mergeTops is the k-way merge of the workers' best-first lists:
// repeatedly take the best head. k and workers are both small, so the
// O(k·workers) selection beats a heap's bookkeeping.
func (v *PredictView) mergeTops(tops [][]scored, k int, lowerIsBetter bool) []Ranked {
	heads := make([]int, len(tops))
	merged := make([]scored, 0, k)
	for len(merged) < k {
		bestW := -1
		for w, top := range tops {
			if heads[w] >= len(top) {
				continue
			}
			if bestW < 0 || betterScored(top[heads[w]], tops[bestW][heads[bestW]], lowerIsBetter) {
				bestW = w
			}
		}
		if bestW < 0 {
			break
		}
		merged = append(merged, tops[bestW][heads[bestW]])
		heads[bestW]++
	}
	return finishRanked(make([]Ranked, 0, len(merged)), merged, v.tr)
}

// minParallelChunk is the minimum number of services per worker that
// justifies a goroutine: below this the spawn+merge overhead dominates
// the dot products it parallelizes.
const minParallelChunk = 256

// TopKAll ranks every service in the view for the user and returns the
// best k — the "pick me the best replica out of everything we know"
// query. It never touches the id index maps: each shard's factor pages
// are scanned with the GEMV-style DotBatch32 kernel (contiguous blocks
// of viewPageRows×rank floats), and only the k survivors are transformed.
// workers > 1 fans the shard scans across that many goroutines with a
// final merge; workers <= 1 scans serially, which is what every caller in
// the product passes: on an L2-resident catalog the fan-out measured
// slower than the scan it splits (DESIGN.md "Ranking fast path"), and the
// parameter is kept only for bench/probes.go, which compiles against this
// signature. Returns nil when the user is unknown or k <= 0.
func (v *PredictView) TopKAll(user int, k int, lowerIsBetter bool, workers int) []Ranked {
	u, ok := v.users.get(user)
	if k = min(k, v.services.count); !ok || k <= 0 {
		return nil
	}
	if workers > viewShardCount {
		workers = viewShardCount
	}
	if workers <= 1 || v.services.count < 2*minParallelChunk {
		sc := rankScratchPool.Get().(*rankScratch)
		h := sc.heap[:0]
		for si := range v.services.shards {
			h = scanShardTopK(&v.services.shards[si], u, h, sc, k, lowerIsBetter)
		}
		out := drainInto(nil, h, lowerIsBetter, v.tr)
		sc.release(h)
		return out
	}

	tops := make([][]scored, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := rankScratchPool.Get().(*rankScratch)
			h := sc.heap[:0]
			for si := w; si < viewShardCount; si += workers {
				h = scanShardTopK(&v.services.shards[si], u, h, sc, k, lowerIsBetter)
			}
			tops[w] = make([]scored, len(h))
			heapDrain(h, tops[w], lowerIsBetter)
			sc.release(h)
		}(w)
	}
	wg.Wait()
	return v.mergeTops(tops, k, lowerIsBetter)
}

// scanShardTopK scans one shard's pages in order; see scanPage.
func scanShardTopK(sh *viewShard, u viewEntity, h []scored, sc *rankScratch, k int, lowerIsBetter bool) []scored {
	for pi, p := range sh.pages {
		h = scanPage(p, sh.idx.pageIDs(pi), u, h, sc, k, lowerIsBetter)
	}
	return h
}

// scanPage scores one page — rows ids — through the batch kernel and
// offers the surviving rows to the bounded heap, returning the (possibly
// grown) heap for pooling. A single-row DotBatch32 is bit-identical to
// Dot32 and per-row results do not depend on how rows are split across
// calls (kernels32.go), so the page scan agrees exactly with the
// candidate path.
func scanPage(p viewPage, ids []int, u viewEntity, h []scored, sc *rankScratch, k int, lowerIsBetter bool) []scored {
	vals := sc.vals[:len(ids)]
	matrix.DotBatch32(vals, p.vecs, u.vec)
	return selectRows(h, ids, vals, k, lowerIsBetter)
}
