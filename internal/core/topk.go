package core

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"unsafe"

	"github.com/qoslab/amf/internal/matrix"
	"github.com/qoslab/amf/internal/transform"
)

// nan marks "no prediction" entries in PredictBatch output; nan32 is
// the selection bound of a heap still filling (heapBound).
var (
	nan   = math.NaN()
	nan32 = float32(nan)
)

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
// heap, one block's worth of scores (and, on the candidate path, their
// ids) for selectRows, and the page scan's query — the user's lane
// gathered into rank consecutive floats. Pooled via pointer so the
// steady-state rank path performs zero allocations after warmup.
type rankScratch struct {
	heap []scored
	ids  [viewPageRows]int
	vals [viewPageRows]float32
	q    []float32
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
// returns the updated heap. The candidate path feeds it the blocks its
// lane dots fill; a full-catalog scan filters in the kernel instead
// (TopKAll). Either way the block's survivors go to pushSurvivors.
func selectRows(h []scored, ids []int, keys []float32, k int, lowerIsBetter bool) []scored {
	keys = keys[:len(ids)]
	m := matrix.Survivors(keys, heapBound(h, k), lowerIsBetter)
	return pushSurvivors(h, ids, keys, m, k, lowerIsBetter)
}

// heapBound is the key a row is compared with to enter h: once h holds k
// rows its root, the k-th best key seen so far — the heap holds keys
// widened from the kernels' float32, which is exact, so narrowing back
// is too — and before that NaN, which no row is strictly worse than.
func heapBound(h []scored, k int) float32 {
	if len(h) < k {
		return nan32
	}
	return float32(h[0].key)
}

// pushSurvivors hands heapPush the rows of one block — ids[i] with key
// keys[i] — whose bit is set in m, the block's survivor mask against
// heapBound(h, k), and returns the updated heap. It is the only caller
// of heapPush: every selection loop (page scan, candidate list) ends
// here.
//
// A row whose key is strictly worse than the heap's k-th best key can
// never be admitted, so the mask (matrix.Survivors, or the one
// matrix.WalkPages32 returns for the page it stops at) clears those rows
// for the whole block in a few vector compares and the loop visits only
// the others: better keys, ties (the id tie-break is heapPush's to decide),
// and anything compared with a NaN, which is never "strictly worse".
// Each push tightens the bound, so a row the mask let through is
// compared again with the current root. Both filters drop only rows
// heapPush would have dropped, which is why the ranking is the one
// pushing every row would give.
func pushSurvivors(h []scored, ids []int, keys []float32, m uint64, k int, lowerIsBetter bool) []scored {
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

// testHookPush, when a test sets it, is called for every row
// pushSurvivors hands to heapPush: how many that is, not how long it
// takes, is what TestSelectionPushBound holds the filter to.
var testHookPush func()

// finishRanked converts best-first scored entries into Ranked values by
// applying the monotone Sigmoid+Backward transform — paid only for the
// k survivors, never for the full candidate set, and mapped back 64 at a
// time (Transformer.BackwardAll) through a buffer on the stack.
func finishRanked(dst []Ranked, sc []scored, tr *transform.Transformer) []Ranked {
	var vals [64]float64
	for len(sc) > 0 {
		n := min(len(sc), len(vals))
		for i, s := range sc[:n] {
			vals[i] = transform.Sigmoid(s.key)
		}
		tr.BackwardAll(vals[:n], vals[:n])
		for i, s := range sc[:n] {
			dst = append(dst, Ranked{Service: s.service, Value: vals[i]})
		}
		sc = sc[n:]
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
		sc.ids[n], sc.vals[n] = c, float32(veDot(u, s)) // a widened float32: exact
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
// scratch pool the steady-state cost is one index lookup and one lane
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
	return v.predictBatch(user, services, dst, nil)
}

// PredictBatchWithConfidence is PredictBatch that also fills conf[i] with
// the pair's confidence; conf must have len(services) too, and is NaN
// wherever dst is. Each value and confidence is, bit for bit, what
// PredictWithConfidence returns for its pair.
func (v *PredictView) PredictBatchWithConfidence(user int, services []int, dst, conf []float64) error {
	if len(dst) != len(services) || len(conf) != len(services) {
		panic("core: PredictBatchWithConfidence dst or conf length mismatch")
	}
	return v.predictBatch(user, services, dst, conf)
}

// predictBatch is PredictBatch, and PredictBatchWithConfidence when conf
// is not nil.
func (v *PredictView) predictBatch(user int, services []int, dst, conf []float64) error {
	u, ok := v.users.get(user)
	if !ok {
		for i := range dst {
			dst[i] = nan
		}
		for i := range conf {
			conf[i] = nan
		}
		return ErrUnknownUser
	}
	ue := u.err()
	for i, id := range services {
		s, ok := v.services.get(id)
		if !ok {
			dst[i] = nan
			if conf != nil {
				conf[i] = nan
			}
			continue
		}
		dst[i] = transform.Sigmoid(veDot(u, s))
		if conf != nil {
			conf[i] = 1 / (1 + ue + s.err())
		}
	}
	// Map every g back at once; an unknown service's NaN maps to NaN.
	v.tr.BackwardAll(dst, dst)
	return nil
}

// ---------------------------------------------------------------------------
// Full-catalog scans.

// TopKAll ranks every service in the view for the user and returns the
// best k — the "pick me the best replica out of everything we know"
// query. It never touches the id index: the user's lane is gathered
// once into a query, and each shard's pages are scored and filtered
// against the heap's bound by matrix.WalkPages32, which walks the
// shard's page slice itself and comes back only at a page with
// survivors; those go to the heap, the bound tightens, and the walk
// resumes at the next page. Only the k survivors are transformed.
// Every caller in the product passes workers = 1; the parameter is
// ignored — the scan is always serial, on the caller's goroutine — and
// stays only because bench/probes.go compiles against this signature
// (DESIGN.md "Ranking fast path" has why the fan-out went). Returns nil
// when the user is unknown or k <= 0.
//
// The kernel sums each row in the association veDot uses, so the scan
// agrees exactly with the candidate path and with point reads. It reads
// each page's block through the page struct (pageStride): vecs must be
// its first field and every block full height, which TestScanLayout
// pins.
func (v *PredictView) TopKAll(user int, k int, lowerIsBetter bool, workers int) []Ranked {
	u, ok := v.users.get(user)
	if k = min(k, v.services.count); !ok || k <= 0 {
		return nil
	}
	sc := rankScratchPool.Get().(*rankScratch)
	sc.q = u.appendFactors(sc.q[:0])
	h := sc.heap[:0]
	for si := range v.services.shards {
		sh := &v.services.shards[si]
		n := len(sh.pages)
		if n == 0 {
			continue
		}
		// The rows of the last page; the kernel never hands back the rest.
		last := ^uint64(0) >> (n<<viewPageShift - len(sh.idx.ids))
		for pi := 0; pi < n; pi++ {
			i, m := matrix.WalkPages32(&sc.vals, &sh.pages[pi].vecs, pageStride, n-pi, sc.q, heapBound(h, k), lowerIsBetter, last)
			if testHookScan != nil {
				testHookScan(i, n-pi, m)
			}
			if m == 0 {
				break // i == n-pi: no page after pi has a survivor
			}
			pi += i
			h = pushSurvivors(h, sh.idx.pageIDs(pi), sc.vals[:], m, k, lowerIsBetter)
		}
	}
	out := drainInto(nil, h, lowerIsBetter, v.tr)
	sc.release(h)
	return out
}

// pageStride is the distance between consecutive pages' blocks as
// matrix.WalkPages32 walks a shard's page slice.
const pageStride = unsafe.Sizeof(viewPage{})

// testHookScan, when a test sets it, is called with what every return
// of matrix.WalkPages32 to TopKAll brings back — the page i of the n
// walked and its mask, or (n, 0) at the shard's end: how often the scan
// re-enters Go, not how long it takes, is what TestScanHandbackBound
// holds it to.
var testHookScan func(i, n int, m uint64)
