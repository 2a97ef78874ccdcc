// Package cluster is the scale-out layer of the QoS prediction service:
// a consistent-hash ring that shards users across replica groups, and an
// HTTP gateway (amfgateway) that routes the prediction API by user
// shard, fans large ranking queries out across a group's replicas, and
// drives leader failover. Within one group every replica holds the full
// group state by tailing the leader's log (internal/server), so reads
// scale with replica count while writes funnel through the group leader.
package cluster

import (
	"fmt"
	"sort"
	"sync"
)

// Health is a replica's availability state, as the gateway's probes see it.
type Health int32

const (
	// Healthy members receive traffic.
	Healthy Health = iota
	// Suspect members failed a recent probe but have not crossed the
	// down threshold; they still receive traffic (one failed probe is
	// usually a blip, and draining on it would flap the ring).
	Suspect
	// Down members failed DownAfter consecutive probes. Ring ownership
	// is NOT affected: groups shard authoritative storage, so a key's
	// owner stays its owner while every replica is Down — requests fail
	// loudly instead of silently landing (and stranding data) on a
	// different group. Health feeds the gateway's /healthz, status, and
	// failover logic.
	Down
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	default:
		return "down"
	}
}

// Member is one ring participant (a shard group, in the gateway's use).
type Member struct {
	name string
}

// Name returns the member's identity.
func (m *Member) Name() string { return m.name }

// Ring is a consistent-hash ring with virtual nodes. Each member is
// hashed at vnodes positions; a key belongs to the first member
// clockwise from the key's hash. Membership changes rendezvous
// minimally: adding or removing one member moves only the keys in its
// arcs (~1/N of the keyspace), every other key keeps its owner — which
// is what makes reshards incremental rather than a full reshuffle.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	members map[string]*Member
	hashes  []uint64  // sorted vnode positions
	owners  []*Member // owners[i] owns hashes[i]
}

// NewRing creates an empty ring with the given virtual-node count per
// member (<= 0 selects the default of 128, which keeps the keyspace
// imbalance between members within a few percent).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 128
	}
	return &Ring{vnodes: vnodes, members: make(map[string]*Member)}
}

// VNodes returns the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Add inserts a member (idempotent: re-adding returns the existing
// member unchanged) and rebuilds the vnode index.
func (r *Ring) Add(name string) *Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[name]; ok {
		return m
	}
	m := &Member{name: name}
	r.members[name] = m
	r.rebuild()
	return m
}

// rebuild recomputes the sorted vnode index; callers hold mu.
func (r *Ring) rebuild() {
	n := len(r.members) * r.vnodes
	r.hashes = make([]uint64, 0, n)
	r.owners = make([]*Member, 0, n)
	type vnode struct {
		hash  uint64
		owner *Member
	}
	vns := make([]vnode, 0, n)
	for name, m := range r.members {
		for i := 0; i < r.vnodes; i++ {
			vns = append(vns, vnode{hash: hash64(fmt.Sprintf("%s#%d", name, i)), owner: m})
		}
	}
	sort.Slice(vns, func(i, j int) bool { return vns[i].hash < vns[j].hash })
	for _, v := range vns {
		r.hashes = append(r.hashes, v.hash)
		r.owners = append(r.owners, v.owner)
	}
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// lookup returns the member owning the key hashed to h: the first member
// clockwise from it, whatever the health of the group behind it.
// Members shard authoritative storage — only the natural owner holds the
// key's data — so an owner whose replicas are all Down still gets the
// route and the request fails with an honest error the client can
// retry, instead of writes silently landing on (and being stranded in)
// a different member's store, or reads answering from a member that
// never saw the key. Returns nil only for an empty ring.
func (r *Ring) lookup(h uint64) *Member {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.hashes) == 0 {
		return nil
	}
	// First vnode clockwise of h (wrapping at the top).
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if start == len(r.hashes) {
		start = 0
	}
	return r.owners[start]
}

// hash64 is 64-bit FNV-1a (hash/fnv's New64a, written out so a key held
// as bytes hashes without becoming a string and neither form allocates)
// — the placement only needs uniformity, and stability across processes
// so every gateway agrees on ownership.
func hash64[S ~string | ~[]byte](s S) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}
