// Package registry implements the user manager and service manager of the
// paper's QoS prediction service (framework Fig. 3): it tracks the joining
// and leaving of named users and services and maps their external string
// names to the dense integer IDs the prediction models use internally.
package registry

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"sync"
	"time"
)

// ErrUnknown is returned when a name or ID is not registered.
var ErrUnknown = errors.New("registry: unknown entity")

// Info describes one registered entity.
type Info struct {
	ID     int
	Name   string
	Joined time.Time
}

// Registry is a concurrency-safe name⇄ID directory with churn support.
// IDs are never reused, so a prediction model keyed by ID cannot confuse a
// departed entity with a later arrival. The zero value is not usable;
// construct with New.
//
// Names resolve through one open-addressed table (names.go) whose entries
// carry the ID, so the read paths never touch an Info; byID serves the
// reverse direction and the listings.
type Registry struct {
	mu     sync.RWMutex
	seed   maphash.Seed // per registry, as clients choose the names; fixed, so names hash outside mu
	names  nameTable
	byID   map[int]*Info
	nextID int
	now    func() time.Time
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		seed:  maphash.MakeSeed(),
		names: newNameTable(0),
		byID:  make(map[int]*Info),
		now:   time.Now,
	}
}

// registerLocked returns name's ID, registering it under the next ID when
// it is unknown; joined is the new registration then, nil otherwise.
// Callers hold mu.
func registerLocked[S ~string | ~[]byte](r *Registry, name S, h uint64) (id int, joined *Info) {
	slot, at := find(&r.names, name, h)
	if at != 0 {
		return r.names.id(at), nil
	}
	info := &Info{ID: r.nextID, Name: string(name), Joined: r.now()}
	r.nextID++
	r.names.insert(slot, h, info.Name, info.ID)
	r.byID[info.ID] = info
	return info.ID, info
}

// Register returns the ID for name, creating a new registration if the
// name is unknown. created reports whether a new entity joined.
func (r *Registry) Register(name string) (id int, created bool) {
	h := maphash.String(r.seed, name)
	r.mu.Lock()
	defer r.mu.Unlock()
	id, joined := registerLocked(r, name, h)
	return id, joined != nil
}

// RegisterAll is Register for every name of a batch, held as bytes (views
// into a request body), under one lock acquisition: the IDs, in order,
// are appended to ids[:0], and created counts the names that joined (a
// name repeated in the batch joins once). A known name costs one probe
// and no allocation; only a joining one is copied. join, when not nil, is
// called with each joining name's binding before the registry's lock is
// released, so no other caller can resolve the name before join has run —
// the server journals the binding there. join runs under the lock: it
// must not call back into the registry.
func (r *Registry) RegisterAll(names [][]byte, ids []int, join func(id int, name string)) (_ []int, created int) {
	ids = ids[:0]
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range names {
		id, joined := registerLocked(r, name, maphash.Bytes(r.seed, name))
		if joined != nil {
			created++
			if join != nil {
				join(id, joined.Name)
			}
		}
		ids = append(ids, id)
	}
	return ids, created
}

// RegisterID registers a name under a specific ID — the WAL-replay path,
// where the ID was assigned before the crash and must be reproduced
// exactly (the model's factors are keyed by it). Replay is at-least-once,
// so an identical existing registration is a no-op; a conflicting one
// (name or ID already bound differently) is an error. The ID counter
// advances past the forced ID so later registrations cannot collide.
func (r *Registry) RegisterID(name string, id int) error {
	if id < 0 {
		return fmt.Errorf("registry: negative ID %d for %q", id, name)
	}
	h := maphash.String(r.seed, name)
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, at := find(&r.names, name, h)
	if at != 0 {
		if bound := r.names.id(at); bound != id {
			return fmt.Errorf("registry: name %q already bound to ID %d, not %d", name, bound, id)
		}
		return nil // exact duplicate: idempotent replay
	}
	if info, ok := r.byID[id]; ok {
		return fmt.Errorf("registry: ID %d already bound to %q, not %q", id, info.Name, name)
	}
	r.names.insert(slot, h, name, id)
	r.byID[id] = &Info{ID: id, Name: name, Joined: r.now()}
	if id >= r.nextID {
		r.nextID = id + 1
	}
	return nil
}

// lookup is Lookup and LookupBytes; h is name's hash under r.seed.
func lookup[S ~string | ~[]byte](r *Registry, name S, h uint64) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if _, at := find(&r.names, name, h); at != 0 {
		return r.names.id(at), true
	}
	return 0, false
}

// Lookup returns the ID for a registered name.
func (r *Registry) Lookup(name string) (int, bool) {
	return lookup(r, name, maphash.String(r.seed, name))
}

// LookupBytes is Lookup for a name held as bytes; it does not allocate.
func (r *Registry) LookupBytes(name []byte) (int, bool) {
	return lookup(r, name, maphash.Bytes(r.seed, name))
}

// ResolveAll looks up many names under a single lock acquisition and
// appends their IDs, in order, to ids[:0]: -1 for a name that is not
// registered (IDs are never negative). Batch endpoints (batch predict,
// candidate ranking) use it instead of per-name lookups so a
// 10k-candidate request costs one RLock, not 10k. The names are bytes —
// views into the request body — so a caller that keeps its slice
// allocates nothing here.
func (r *Registry) ResolveAll(names [][]byte, ids []int) []int {
	ids = ids[:0]
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range names {
		id := -1
		if _, at := find(&r.names, name, maphash.Bytes(r.seed, name)); at != 0 {
			id = r.names.id(at)
		}
		ids = append(ids, id)
	}
	return ids
}

// NameOf returns the registered name for an ID ("" when unknown) — the
// reverse of Lookup, used when mapping ranked model IDs back to API
// names.
func (r *Registry) NameOf(id int) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	info, ok := r.byID[id]
	if !ok {
		return "", false
	}
	return info.Name, true
}

// Get returns a copy of the Info for an ID.
func (r *Registry) Get(id int) (Info, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	info, ok := r.byID[id]
	if !ok {
		return Info{}, false
	}
	return *info, true
}

// Deregister removes a name (the entity leaves the environment). It
// returns the departed ID so callers can purge model state.
func (r *Registry) Deregister(name string) (int, bool) {
	h := maphash.String(r.seed, name)
	r.mu.Lock()
	defer r.mu.Unlock()
	slot, at := find(&r.names, name, h)
	if at == 0 {
		return 0, false
	}
	id := r.names.id(at)
	r.names.remove(slot)
	delete(r.byID, id)
	return id, true
}

// Restore replaces the registry's contents with previously exported
// Infos (see List), preserving IDs. The ID counter resumes after the
// largest restored ID so later registrations cannot collide. It fails on
// duplicate names or IDs and on negative IDs, leaving the registry
// unchanged.
func (r *Registry) Restore(infos []Info) error {
	names := newNameTable(len(infos))
	byID := make(map[int]*Info, len(infos))
	next := 0
	for _, in := range infos {
		if in.ID < 0 {
			return fmt.Errorf("registry: negative ID %d for %q in restore", in.ID, in.Name)
		}
		h := maphash.String(r.seed, in.Name)
		slot, at := find(&names, in.Name, h)
		if at != 0 {
			return fmt.Errorf("registry: duplicate name %q in restore", in.Name)
		}
		if _, dup := byID[in.ID]; dup {
			return fmt.Errorf("registry: duplicate ID %d in restore", in.ID)
		}
		cp := in
		names.insert(slot, h, cp.Name, cp.ID)
		byID[cp.ID] = &cp
		if cp.ID >= next {
			next = cp.ID + 1
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.names = names
	r.byID = byID
	r.nextID = next
	return nil
}

// Len returns the number of registered entities.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byID)
}

// List returns copies of all registrations, sorted by ID.
func (r *Registry) List() []Info {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Info, 0, len(r.byID))
	for _, info := range r.byID {
		out = append(out, *info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
