package registry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRegisterAndLookup(t *testing.T) {
	r := New()
	id, created := r.Register("user-a")
	if !created || id != 0 {
		t.Fatalf("first register = %d, %v", id, created)
	}
	id2, created2 := r.Register("user-a")
	if created2 || id2 != id {
		t.Fatalf("re-register = %d, %v", id2, created2)
	}
	if got, ok := r.Lookup("user-a"); !ok || got != id {
		t.Fatalf("lookup = %d, %v", got, ok)
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Fatal("unknown lookup should fail")
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestIDsNeverReused(t *testing.T) {
	r := New()
	idA, _ := r.Register("a")
	r.Deregister("a")
	idB, _ := r.Register("a")
	if idB == idA {
		t.Fatal("IDs must not be reused after deregistration")
	}
}

func TestDeregister(t *testing.T) {
	r := New()
	id, _ := r.Register("svc")
	gone, ok := r.Deregister("svc")
	if !ok || gone != id {
		t.Fatalf("deregister = %d, %v", gone, ok)
	}
	if _, ok := r.Lookup("svc"); ok {
		t.Fatal("deregistered name should be gone")
	}
	if _, ok := r.Get(id); ok {
		t.Fatal("deregistered ID should be gone")
	}
	if _, ok := r.Deregister("svc"); ok {
		t.Fatal("double deregister should fail")
	}
}

func TestGetAndClockInjection(t *testing.T) {
	fixed := time.Date(2014, 6, 1, 0, 0, 0, 0, time.UTC)
	r := New()
	r.now = func() time.Time { return fixed }
	id, _ := r.Register("x")
	info, ok := r.Get(id)
	if !ok || info.Name != "x" || !info.Joined.Equal(fixed) {
		t.Fatalf("info = %+v, %v", info, ok)
	}
	if _, ok := r.Get(999); ok {
		t.Fatal("unknown ID should fail")
	}
}

func TestListSorted(t *testing.T) {
	r := New()
	for _, n := range []string{"c", "a", "b"} {
		r.Register(n)
	}
	list := r.List()
	if len(list) != 3 {
		t.Fatalf("list length %d", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i].ID <= list[i-1].ID {
			t.Fatal("list must be sorted by ID")
		}
	}
}

func TestConcurrentRegistration(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	const goroutines = 8
	const perG = 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Half shared names (contended), half unique.
				if i%2 == 0 {
					r.Register(fmt.Sprintf("shared-%d", i))
				} else {
					r.Register(fmt.Sprintf("own-%d-%d", g, i))
				}
				r.Lookup("shared-0")
				r.Len()
			}
		}(g)
	}
	wg.Wait()
	wantShared := perG / 2
	wantOwn := goroutines * perG / 2
	if got := r.Len(); got != wantShared+wantOwn {
		t.Fatalf("len = %d, want %d", got, wantShared+wantOwn)
	}
	// IDs must be unique.
	seen := map[int]bool{}
	for _, info := range r.List() {
		if seen[info.ID] {
			t.Fatalf("duplicate ID %d", info.ID)
		}
		seen[info.ID] = true
	}
}

func TestRestorePreservesIDsAndResumesCounter(t *testing.T) {
	src := New()
	src.Register("a")
	src.Register("b")
	src.Register("c")
	src.Deregister("b") // leaves a hole: IDs {0, 2}
	exported := src.List()

	dst := New()
	dst.Register("x") // pre-existing content is replaced by Restore
	if err := dst.Restore(exported); err != nil {
		t.Fatal(err)
	}
	if _, ok := dst.Lookup("x"); ok {
		t.Fatal("restore should replace prior contents")
	}
	idA, _ := dst.Lookup("a")
	idC, _ := dst.Lookup("c")
	if idA != 0 || idC != 2 {
		t.Fatalf("restored IDs a=%d c=%d, want 0/2", idA, idC)
	}
	// The counter must resume after the max restored ID.
	newID, created := dst.Register("d")
	if !created || newID != 3 {
		t.Fatalf("post-restore registration = %d, %v; want 3", newID, created)
	}
}

func TestRestoreRejectsDuplicates(t *testing.T) {
	r := New()
	r.Register("keep")
	dupName := []Info{{ID: 0, Name: "a"}, {ID: 1, Name: "a"}}
	if err := r.Restore(dupName); err == nil {
		t.Fatal("duplicate names should fail")
	}
	dupID := []Info{{ID: 0, Name: "a"}, {ID: 0, Name: "b"}}
	if err := r.Restore(dupID); err == nil {
		t.Fatal("duplicate IDs should fail")
	}
	// Failed restore must leave the registry unchanged.
	if _, ok := r.Lookup("keep"); !ok {
		t.Fatal("failed restore must not clear the registry")
	}
}

func TestRegisterIDIdempotentReplay(t *testing.T) {
	// WAL replay is at-least-once: re-applying the exact registration
	// must be a no-op, not an error and not a new ID.
	r := New()
	if err := r.RegisterID("u", 7); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterID("u", 7); err != nil {
		t.Fatalf("exact duplicate replay: %v", err)
	}
	if id, ok := r.Lookup("u"); !ok || id != 7 {
		t.Fatalf("lookup after replay = %d, %v", id, ok)
	}
	// The counter advanced past the forced ID, so fresh registrations
	// cannot collide with replayed ones.
	if id, created := r.Register("fresh"); !created || id != 8 {
		t.Fatalf("post-replay Register = %d, %v; want 8, true", id, created)
	}
}

func TestRegisterIDConflicts(t *testing.T) {
	r := New()
	if err := r.RegisterID("u", 3); err != nil {
		t.Fatal(err)
	}
	// Same name, different forced ID: a corrupted or foreign WAL.
	if err := r.RegisterID("u", 4); err == nil {
		t.Fatal("name rebound to a different ID should fail")
	}
	// Same ID, different name.
	if err := r.RegisterID("v", 3); err == nil {
		t.Fatal("ID rebound to a different name should fail")
	}
	// Negative IDs never come from a valid WAL.
	if err := r.RegisterID("w", -1); err == nil {
		t.Fatal("negative ID should fail")
	}
	// Failed registrations must leave no trace.
	if _, ok := r.Lookup("v"); ok {
		t.Fatal("failed RegisterID leaked a name binding")
	}
	if _, ok := r.Lookup("w"); ok {
		t.Fatal("failed RegisterID leaked a negative-ID binding")
	}
	if id, ok := r.Lookup("u"); !ok || id != 3 {
		t.Fatalf("original binding disturbed: %d, %v", id, ok)
	}
}

func TestRegisterIDAfterOrganicRegistration(t *testing.T) {
	// A name first registered organically (auto-assigned ID) then
	// replayed with a mismatched forced ID must be rejected — silently
	// remapping would detach the model's factor rows from their keys.
	r := New()
	id, _ := r.Register("organic")
	if err := r.RegisterID("organic", id); err != nil {
		t.Fatalf("matching forced ID: %v", err)
	}
	if err := r.RegisterID("organic", id+100); err == nil {
		t.Fatal("mismatched forced ID should fail")
	}
	// Forcing an ID below the counter must not rewind it.
	r2 := New()
	r2.Register("a") // ID 0
	r2.Register("b") // ID 1
	if err := r2.RegisterID("replayed", 0); err == nil {
		t.Fatal("forcing an ID bound to another name should fail")
	}
	if id, created := r2.Register("c"); !created || id != 2 {
		t.Fatalf("counter disturbed by failed RegisterID: %d, %v", id, created)
	}
}
