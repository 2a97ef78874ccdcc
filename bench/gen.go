package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"github.com/qoslab/amf/internal/dataset"
)

// opKind names one request kind; its index keys the per-op metric
// families (opNames in spec.go).
type opKind int

const (
	opPredict opKind = iota
	opBatch
	opRankCand
	opRankAll
	opObserve
	numOps
)

func (k opKind) String() string { return opNames[k] }

// request is one pre-encoded API call. want is what a correct response
// must report: accepted samples, ok predictions, or ranked entries.
type request struct {
	kind   opKind
	method string
	path   string // path plus query, as the gateway sees it
	body   []byte
	want   int
}

// cycle is one op of a workload: a single request for the three
// one-route workloads, the whole adaptation cycle for adapt_cycle, all for
// one user.
type cycle struct {
	reqs []request
	user int
}

type pair struct{ user, service int }

// inputs is everything a run sends and checks against, a pure function
// of (workload, seed).
type inputs struct {
	w        workloadSpec
	gen      *dataset.Generator
	users    []string
	services []string
	preload  []request // observe batches, in send order
	samples  int       // observations in preload
	ring     []cycle
	heldout  []pair // never observed by preload or ops
	digest   [sha256.Size]byte
}

func userName(i int) string    { return fmt.Sprintf("u%04d", i) }
func serviceName(i int) string { return fmt.Sprintf("s%05d", i) }

// subSeed derives an independent stream per purpose so that, say, a
// longer ring does not shift which pairs are held out.
func subSeed(seed int64, purpose string) int64 {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s", seed, purpose)))
	return int64(binary.LittleEndian.Uint64(h[:8]) >> 1)
}

// generate derives a run's inputs from the seed. The QoS world itself (who
// is slow, which service is loaded when) is one fixed synthetic dataset,
// as WS-DREAM is for the paper; the seed decides, as the paper's protocol
// does, which entries of it are observed, which are held out, and what the
// clients ask for. That keeps the accuracy metrics comparable across seeds.
func generate(w workloadSpec, seed int64) (*inputs, error) {
	gen, err := dataset.New(dataset.Config{
		Users: w.users, Services: w.services, Slices: datasetSlices,
		Interval: dataset.DefaultConfig().Interval, Rank: datasetTrueRank,
		Seed: dataset.DefaultConfig().Seed,
	})
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, gen: gen,
		users: make([]string, w.users), services: make([]string, w.services)}
	for i := range in.users {
		in.users[i] = userName(i)
	}
	for i := range in.services {
		in.services[i] = serviceName(i)
	}

	// Preload: each pair observed with probability density at slice 0,
	// plus one sample for any user or service the draw left out, so every
	// name the ops use is known to the model.
	rng := rand.New(rand.NewSource(subSeed(seed, "preload")))
	observed := make([]bool, w.users*w.services)
	var pre []pair
	userSeen := make([]bool, w.users)
	svcSeen := make([]bool, w.services)
	add := func(p pair) {
		if observed[p.user*w.services+p.service] {
			return
		}
		observed[p.user*w.services+p.service] = true
		userSeen[p.user], svcSeen[p.service] = true, true
		pre = append(pre, p)
	}
	for u := 0; u < w.users; u++ {
		for s := 0; s < w.services; s++ {
			if rng.Float64() < w.density {
				add(pair{u, s})
			}
		}
	}
	for s, seen := range svcSeen {
		if !seen {
			add(pair{rng.Intn(w.users), s})
		}
	}
	for u, seen := range userSeen {
		if !seen {
			add(pair{u, rng.Intn(w.services)})
		}
	}
	rng.Shuffle(len(pre), func(i, j int) { pre[i], pre[j] = pre[j], pre[i] })
	in.samples = len(pre)
	for lo := 0; lo < len(pre); lo += preloadBatch {
		hi := min(lo+preloadBatch, len(pre))
		in.preload = append(in.preload, in.observeRequest(pre[lo:hi], preloadSlice))
	}

	// Held-out pairs: never preloaded, and excluded from every observe op.
	rng = rand.New(rand.NewSource(subSeed(seed, "heldout")))
	held := make(map[pair]struct{}, heldoutPairs)
	for len(in.heldout) < heldoutPairs {
		p := pair{rng.Intn(w.users), rng.Intn(w.services)}
		if observed[p.user*w.services+p.service] {
			continue
		}
		if _, dup := held[p]; dup {
			continue
		}
		held[p] = struct{}{}
		in.heldout = append(in.heldout, p)
	}

	rng = rand.New(rand.NewSource(subSeed(seed, "ops")))
	zipf := rand.NewZipf(rng, zipfExponent, 1, uint64(w.users-1))
	// distinct draws n services for user u, skipping held-out pairs.
	distinct := func(u, n int, skipHeld bool) []int {
		out := make([]int, 0, n)
		seen := make(map[int]struct{}, n)
		for len(out) < n {
			s := rng.Intn(w.services)
			if _, dup := seen[s]; dup {
				continue
			}
			if _, h := held[pair{u, s}]; h && skipHeld {
				continue
			}
			seen[s] = struct{}{}
			out = append(out, s)
		}
		return out
	}
	// The preload is history (slice 0); every op observes the slice after
	// it, the way the paper streams the current slice into the model and
	// judges it on that slice's removed entries.
	observeOf := func(u, n int) request {
		ps := make([]pair, n)
		for i, s := range distinct(u, n, true) {
			ps[i] = pair{u, s}
		}
		return in.observeRequest(ps, streamSlice)
	}
	in.ring = make([]cycle, w.ring)
	for i := range in.ring {
		u := int(zipf.Uint64())
		c := cycle{user: u}
		switch w.name {
		case "predict_point":
			c.reqs = []request{in.predictRequest(u, rng.Intn(w.services))}
		case "rank_catalog":
			c.reqs = []request{in.rankRequest(u, nil, rankAllTopK)}
		case "observe_durable":
			c.reqs = []request{observeOf(u, observeBatch)}
		case "adapt_cycle":
			c.reqs = append(c.reqs, observeOf(u, adaptObserve))
			for r := 0; r < adaptReads; r++ {
				c.reqs = append(c.reqs,
					in.batchRequest(u, distinct(u, batchCandidates, false)),
					in.rankRequest(u, distinct(u, rankCandidates, false), rankCandTopK),
					in.rankRequest(u, nil, rankAllTopK))
			}
		default:
			return nil, fmt.Errorf("no op stream defined for workload %q", w.name)
		}
		in.ring[i] = c
	}

	h := sha256.New()
	for _, r := range in.preload {
		hashRequest(h, r)
	}
	for _, c := range in.ring {
		for _, r := range c.reqs {
			hashRequest(h, r)
		}
	}
	for _, p := range in.heldout {
		fmt.Fprintf(h, "%d,%d;", p.user, p.service)
	}
	h.Sum(in.digest[:0])
	return in, nil
}

func hashRequest(h io.Writer, r request) {
	h.Write([]byte(r.method))
	h.Write([]byte(r.path))
	h.Write(r.body)
	h.Write([]byte{0})
}

func (in *inputs) truth(p pair, slice int) float64 {
	return in.gen.Value(dataset.ResponseTime, p.user, p.service, slice)
}

func (in *inputs) predictRequest(u, s int) request {
	return request{kind: opPredict, method: "GET", want: 1,
		path: "/api/v1/predict?user=" + in.users[u] + "&service=" + in.services[s]}
}

func (in *inputs) observeRequest(ps []pair, slice int) request {
	b := make([]byte, 0, 64*len(ps)+32)
	b = append(b, `{"observations":[`...)
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"user":"`...)
		b = append(b, in.users[p.user]...)
		b = append(b, `","service":"`...)
		b = append(b, in.services[p.service]...)
		b = append(b, `","value":`...)
		b = strconv.AppendFloat(b, in.truth(p, slice), 'g', -1, 64)
		b = append(b, '}')
	}
	b = append(b, "]}"...)
	return request{kind: opObserve, method: "POST", path: "/api/v1/observe", body: b, want: len(ps)}
}

func (in *inputs) appendNames(b []byte, svcs []int) []byte {
	b = append(b, `"services":[`...)
	for i, s := range svcs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, in.services[s]...)
		b = append(b, '"')
	}
	return append(b, ']')
}

func (in *inputs) batchRequest(u int, svcs []int) request {
	b := append([]byte(`{"user":"`), in.users[u]...)
	b = append(b, `",`...)
	b = in.appendNames(b, svcs)
	b = append(b, '}')
	return request{kind: opBatch, method: "POST", path: "/api/v1/predict", body: b, want: len(svcs)}
}

// rankRequest ranks svcs for u, or the whole catalog when svcs is nil.
func (in *inputs) rankRequest(u int, svcs []int, topk int) request {
	b := append([]byte(`{"user":"`), in.users[u]...)
	b = append(b, `",`...)
	kind := opRankAll
	if svcs != nil {
		kind = opRankCand
		b = in.appendNames(b, svcs)
		b = append(b, ',')
	}
	b = append(b, `"topk":`...)
	b = strconv.AppendInt(b, int64(topk), 10)
	b = append(b, '}')
	return request{kind: kind, method: "POST", path: "/api/v1/rank", body: b, want: topk}
}
