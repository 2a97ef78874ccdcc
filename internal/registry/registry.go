// Package registry implements the user manager and service manager of the
// paper's QoS prediction service (framework Fig. 3): it tracks the joining
// and leaving of named users and services and maps their external string
// names to the dense integer IDs the prediction models use internally.
package registry

import (
	"errors"
	"fmt"
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
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*Info
	byID   map[int]*Info
	nextID int
	now    func() time.Time
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		byName: make(map[string]*Info),
		byID:   make(map[int]*Info),
		now:    time.Now,
	}
}

// Register returns the ID for name, creating a new registration if the
// name is unknown. created reports whether a new entity joined.
func (r *Registry) Register(name string) (id int, created bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if info, ok := r.byName[name]; ok {
		return info.ID, false
	}
	return r.addLocked(name), true
}

// RegisterBytes is Register for a name held as bytes (a view into a
// request body): a known name costs a map probe and no allocation, and
// only a joining one is copied into a string.
func (r *Registry) RegisterBytes(name []byte) (id int, created bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if info, ok := r.byName[string(name)]; ok {
		return info.ID, false
	}
	return r.addLocked(string(name)), true
}

// addLocked registers a new name under the next ID; callers hold mu.
func (r *Registry) addLocked(name string) int {
	info := &Info{ID: r.nextID, Name: name, Joined: r.now()}
	r.nextID++
	r.byName[name] = info
	r.byID[info.ID] = info
	return info.ID
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
	r.mu.Lock()
	defer r.mu.Unlock()
	if info, ok := r.byName[name]; ok {
		if info.ID == id {
			return nil // exact duplicate: idempotent replay
		}
		return fmt.Errorf("registry: name %q already bound to ID %d, not %d", name, info.ID, id)
	}
	if info, ok := r.byID[id]; ok {
		return fmt.Errorf("registry: ID %d already bound to %q, not %q", id, info.Name, name)
	}
	info := &Info{ID: id, Name: name, Joined: r.now()}
	r.byName[name] = info
	r.byID[id] = info
	if id >= r.nextID {
		r.nextID = id + 1
	}
	return nil
}

// Lookup returns the ID for a registered name.
func (r *Registry) Lookup(name string) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	info, ok := r.byName[name]
	if !ok {
		return 0, false
	}
	return info.ID, true
}

// LookupBytes is Lookup for a name held as bytes; it does not allocate.
func (r *Registry) LookupBytes(name []byte) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	info, ok := r.byName[string(name)]
	if !ok {
		return 0, false
	}
	return info.ID, true
}

// ResolveAll looks up many names under a single lock acquisition,
// returning parallel id/known slices (ids[i] is meaningful only when
// known[i]). Batch endpoints (batch predict, candidate ranking) use it
// instead of per-name lookups so a 10k-candidate request costs one
// RLock, not 10k. The names are bytes — views into the request body —
// and the results are appended to ids[:0] and known[:0], so a caller
// that keeps its slices allocates nothing here.
func (r *Registry) ResolveAll(names [][]byte, ids []int, known []bool) ([]int, []bool) {
	ids, known = ids[:0], known[:0]
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range names {
		info, ok := r.byName[string(name)]
		if ok {
			ids = append(ids, info.ID)
		} else {
			ids = append(ids, 0)
		}
		known = append(known, ok)
	}
	return ids, known
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
	r.mu.Lock()
	defer r.mu.Unlock()
	info, ok := r.byName[name]
	if !ok {
		return 0, false
	}
	delete(r.byName, name)
	delete(r.byID, info.ID)
	return info.ID, true
}

// Restore replaces the registry's contents with previously exported
// Infos (see List), preserving IDs. The ID counter resumes after the
// largest restored ID so later registrations cannot collide. It fails on
// duplicate names or IDs, leaving the registry unchanged.
func (r *Registry) Restore(infos []Info) error {
	byName := make(map[string]*Info, len(infos))
	byID := make(map[int]*Info, len(infos))
	next := 0
	for _, in := range infos {
		if _, dup := byName[in.Name]; dup {
			return fmt.Errorf("registry: duplicate name %q in restore", in.Name)
		}
		if _, dup := byID[in.ID]; dup {
			return fmt.Errorf("registry: duplicate ID %d in restore", in.ID)
		}
		cp := in
		byName[cp.Name] = &cp
		byID[cp.ID] = &cp
		if cp.ID >= next {
			next = cp.ID + 1
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byName = byName
	r.byID = byID
	r.nextID = next
	return nil
}

// Len returns the number of registered entities.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.byName)
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
