package registry

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// checkTable holds the name table to its invariants: at most half full,
// every slot's tag and name found again by a fresh probe, one slot per
// registration, and an arena of live names, headers and dead bytes that
// is never more than twice the live ones.
func checkTable(t *testing.T, r *Registry) {
	t.Helper()
	tab := &r.names
	if 2*tab.n > len(tab.slots) {
		t.Fatalf("%d names in %d slots: more than half full", tab.n, len(tab.slots))
	}
	n, live := 0, 0
	for i, s := range tab.slots {
		if s == 0 {
			continue
		}
		n++
		at := uint32(s)
		name := string(tab.arena[at : at+tab.nameLen(at)])
		live += nameHeader + len(name)
		slot, got := find(tab, name, maphash.String(r.seed, name))
		if slot != i || got != at {
			t.Fatalf("%q in slot %d at %d: a probe finds slot %d at %d", name, i, at, slot, got)
		}
		if info, ok := r.byID[tab.id(at)]; !ok || info.Name != name {
			t.Fatalf("%q carries ID %d, registered as %+v", name, tab.id(at), info)
		}
	}
	if n != tab.n || n != len(r.byID) {
		t.Fatalf("%d slots in use, n = %d, %d registrations", n, tab.n, len(r.byID))
	}
	if live != len(tab.arena)-tab.dead {
		t.Fatalf("live names take %d arena bytes; the arena holds %d with %d dead", live, len(tab.arena), tab.dead)
	}
	if len(tab.arena) > 2*live {
		t.Fatalf("arena of %d bytes for %d live bytes", len(tab.arena), live)
	}
}

// TestRegistryMatchesMapReference drives seeded random scripts of every
// registry operation against a map-backed reference: same IDs, same
// errors, same joins, same listings, after every step.
func TestRegistryMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			// A small pool, so names rejoin and probes collide; lengths up to
			// 40, empty included, many sharing a prefix.
			pool := make([]string, 60+rng.Intn(300))
			for i := range pool {
				pool[i] = strings.Repeat("x", rng.Intn(3)*rng.Intn(15)) + fmt.Sprint(i)
				if rng.Intn(20) == 0 {
					pool[i] = pool[i][:0]
				}
			}
			pick := func() string { return pool[rng.Intn(len(pool))] }

			r := New()
			ref := map[string]int{}
			next := 0
			refRegister := func(name string) (int, bool) {
				if id, ok := ref[name]; ok {
					return id, false
				}
				ref[name] = next
				next++
				return next - 1, true
			}
			var joins []string
			join := func(id int, name string) { joins = append(joins, fmt.Sprint(id, "=", name)) }
			expectJoins := func(step int, want []string) {
				t.Helper()
				if fmt.Sprint(joins) != fmt.Sprint(want) {
					t.Fatalf("step %d: joins %v, want %v", step, joins, want)
				}
				joins = joins[:0]
			}

			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(100); {
				case op < 20:
					name := pick()
					id, created := r.Register(name)
					wantID, wantCreated := refRegister(name)
					if id != wantID || created != wantCreated {
						t.Fatalf("step %d: Register(%q) = %d, %v; want %d, %v", step, name, id, created, wantID, wantCreated)
					}
				case op < 35:
					name := pick()
					ids, n := r.RegisterAll([][]byte{[]byte(name)}, nil, join)
					id, created := ids[0], n == 1
					wantID, wantCreated := refRegister(name)
					if id != wantID || created != wantCreated {
						t.Fatalf("step %d: RegisterAll(%q) = %d, %v; want %d, %v", step, name, id, created, wantID, wantCreated)
					}
					var want []string
					if created {
						want = append(want, fmt.Sprint(id, "=", name))
					}
					expectJoins(step, want)
				case op < 45:
					names := make([][]byte, rng.Intn(12))
					for i := range names {
						names[i] = []byte(pick())
					}
					ids, created := r.RegisterAll(names, make([]int, 3), join)
					var want []string
					wantCreated := 0
					for i, name := range names {
						wantID, joined := refRegister(string(name))
						if joined {
							wantCreated++
							want = append(want, fmt.Sprint(wantID, "=", string(name)))
						}
						if ids[i] != wantID {
							t.Fatalf("step %d: RegisterAll name %d (%q) got ID %d, want %d", step, i, name, ids[i], wantID)
						}
					}
					if len(ids) != len(names) || created != wantCreated {
						t.Fatalf("step %d: RegisterAll of %d names: %d IDs, %d created; want %d created", step, len(names), len(ids), created, wantCreated)
					}
					expectJoins(step, want)
				case op < 52:
					name, id := pick(), rng.Intn(next+5)
					err := r.RegisterID(name, id)
					bound, named := ref[name]
					taken := false
					for _, v := range ref {
						taken = taken || v == id
					}
					switch {
					case named && bound == id, !named && !taken:
						if err != nil {
							t.Fatalf("step %d: RegisterID(%q, %d): %v", step, name, id, err)
						}
						ref[name] = id
						next = max(next, id+1)
					case err == nil:
						t.Fatalf("step %d: RegisterID(%q, %d) accepted a conflicting binding", step, name, id)
					}
				case op < 70:
					name := pick()
					id, ok := r.Deregister(name)
					wantID, wantOK := ref[name]
					if ok != wantOK || ok && id != wantID {
						t.Fatalf("step %d: Deregister(%q) = %d, %v; want %d, %v", step, name, id, ok, wantID, wantOK)
					}
					delete(ref, name)
				case op < 72:
					// Restore a random subset of the current listing: the reference
					// keeps those, and the counter resumes after their largest ID.
					var keep []Info
					for _, in := range r.List() {
						if rng.Intn(3) > 0 {
							keep = append(keep, in)
						}
					}
					rng.Shuffle(len(keep), func(i, j int) { keep[i], keep[j] = keep[j], keep[i] })
					if err := r.Restore(keep); err != nil {
						t.Fatalf("step %d: Restore: %v", step, err)
					}
					ref, next = map[string]int{}, 0
					for _, in := range keep {
						ref[in.Name] = in.ID
						next = max(next, in.ID+1)
					}
				case op < 85:
					name := pick()
					id, ok := r.Lookup(name)
					idB, okB := r.LookupBytes([]byte(name))
					wantID, wantOK := ref[name]
					if ok != wantOK || okB != wantOK || ok && (id != wantID || idB != wantID) {
						t.Fatalf("step %d: Lookup(%q) = %d, %v / %d, %v; want %d, %v", step, name, id, ok, idB, okB, wantID, wantOK)
					}
				case op < 95:
					names := make([][]byte, rng.Intn(20))
					for i := range names {
						names[i] = []byte(pick())
					}
					ids := r.ResolveAll(names, nil)
					for i, name := range names {
						want, ok := ref[string(name)]
						if !ok {
							want = -1
						}
						if ids[i] != want {
							t.Fatalf("step %d: ResolveAll name %d (%q) = %d, want %d", step, i, name, ids[i], want)
						}
					}
				default:
					id := rng.Intn(next + 2)
					name, ok := r.NameOf(id)
					var wantName string
					wantOK := false
					for n, v := range ref {
						if v == id {
							wantName, wantOK = n, true
						}
					}
					if name != wantName || ok != wantOK {
						t.Fatalf("step %d: NameOf(%d) = %q, %v; want %q, %v", step, id, name, ok, wantName, wantOK)
					}
				}
				if r.Len() != len(ref) {
					t.Fatalf("step %d: Len = %d, want %d", step, r.Len(), len(ref))
				}
				if step%50 == 0 {
					var want []string
					for n, id := range ref {
						want = append(want, fmt.Sprint(id, "=", n))
					}
					sort.Strings(want)
					var got []string
					for _, in := range r.List() {
						got = append(got, fmt.Sprint(in.ID, "=", in.Name))
					}
					sort.Strings(got)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d: List = %v, want %v", step, got, want)
					}
					checkTable(t, r)
				}
			}
		})
	}
}

// TestArenaBoundedUnderChurn: 100k join/leave cycles at a constant live
// count leave the arena within twice its live bytes, and the slot array
// the size the live count needs.
func TestArenaBoundedUnderChurn(t *testing.T) {
	const live, cycles = 1000, 100_000
	r := New()
	name := func(i int) string { return fmt.Sprintf("service-%08d", i) }
	for i := 0; i < live; i++ {
		r.Register(name(i))
	}
	liveBytes := len(r.names.arena)
	slots := len(r.names.slots)
	for i := live; i < live+cycles; i++ {
		r.Register(name(i))
		if _, ok := r.Deregister(name(i - live)); !ok {
			t.Fatalf("cycle %d: %s was not registered", i, name(i-live))
		}
		if len(r.names.arena) > 2*liveBytes {
			t.Fatalf("cycle %d: arena %d bytes for %d live", i, len(r.names.arena), liveBytes)
		}
	}
	if len(r.names.slots) != slots {
		t.Errorf("slot array %d after churn, %d before", len(r.names.slots), slots)
	}
	checkTable(t, r)
	for i := cycles; i < live+cycles; i++ {
		if id, ok := r.Lookup(name(i)); !ok || id != i {
			t.Fatalf("%s: ID %d, %v; want %d", name(i), id, ok, i)
		}
	}
}

// TestResolveWhileJoining: readers resolve a fixed set of names while
// joins grow the slot array and reallocate the arena underneath them;
// every answer is the name's one ID. Run with -race.
func TestResolveWhileJoining(t *testing.T) {
	r := New()
	known := make([][]byte, 64)
	for i := range known {
		known[i] = []byte(fmt.Sprint("known-", i))
		r.Register(string(known[i]))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ids []int
			for {
				select {
				case <-stop:
					return
				default:
				}
				ids = r.ResolveAll(known, ids)
				for i, id := range ids {
					if id != i {
						t.Errorf("%s resolved to %d, want %d", known[i], id, i)
						return
					}
				}
				if id, ok := r.Lookup("known-7"); !ok || id != 7 {
					t.Errorf("Lookup(known-7) = %d, %v", id, ok)
					return
				}
			}
		}()
	}
	batch := make([][]byte, 16)
	for i := 0; i < 5000; i += len(batch) {
		for j := range batch {
			batch[j] = []byte(fmt.Sprint("joining-", i+j))
		}
		r.RegisterAll(batch, nil, nil)
	}
	close(stop)
	wg.Wait()
	checkTable(t, r)
}

// TestKnownNamesAllocateNothing: resolving a registered name — as a
// string or as bytes, one at a time or in a batch, read-only or through
// a register call — allocates nothing.
func TestKnownNamesAllocateNothing(t *testing.T) {
	r := New()
	names := make([][]byte, 200)
	for i := range names {
		names[i] = []byte(fmt.Sprintf("candidate-service-%05d", i))
		r.Register(string(names[i]))
	}
	str := string(names[17])
	ids := make([]int, 0, len(names))
	for what, f := range map[string]func(){
		"Lookup":      func() { r.Lookup(str) },
		"LookupBytes": func() { r.LookupBytes(names[3]) },
		"ResolveAll":  func() { ids = r.ResolveAll(names, ids) },
		"RegisterAll": func() { ids, _ = r.RegisterAll(names, ids, nil) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s of a known name allocates %v times", what, allocs)
		}
	}
}

// BenchmarkRegistryResolveAll resolves the 200 candidates of a rank
// request against 10k registered names. In a hot loop the table and the
// names stay in cache, so this prices the probe itself, not the cache
// footprint the served path gains by.
func BenchmarkRegistryResolveAll(b *testing.B) {
	r := New()
	const n, batch = 10_000, 200
	for i := 0; i < n; i++ {
		r.Register(fmt.Sprintf("svc-%d", i))
	}
	names := make([][]byte, batch)
	for i := range names {
		names[i] = []byte(fmt.Sprintf("svc-%d", (i*7919)%n))
	}
	ids := make([]int, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids = r.ResolveAll(names, ids)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/name")
}
