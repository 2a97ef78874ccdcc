package control

import (
	"math"
	"net/http"
	"testing"
	"time"
)

func TestParseClass(t *testing.T) {
	cases := []struct {
		in   string
		want Class
		ok   bool
	}{
		{"critical", Critical, true},
		{"standard", Standard, true},
		{"sheddable", Sheddable, true},
		{"", Standard, false},
		{"CRITICAL", Standard, false},
		{"bulk", Standard, false},
	}
	for _, c := range cases {
		got, ok := ParseClass(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseClass(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
	h := http.Header{}
	if got := ClassFromHeader(h); got != Standard {
		t.Errorf("missing header: got %v, want standard", got)
	}
	h.Set(ClassHeader, "sheddable")
	if got := ClassFromHeader(h); got != Sheddable {
		t.Errorf("sheddable header: got %v", got)
	}
	for _, c := range Classes() {
		rt, ok := ParseClass(c.String())
		if !ok || rt != c {
			t.Errorf("round trip %v failed: %v %v", c, rt, ok)
		}
	}
}

func TestTunableBoundsAndSources(t *testing.T) {
	r := NewRegistry()
	ti := r.Int("t.int", "help", 100, 10, 1000, SourceDefault)
	td := r.Duration("t.dur", "help", 50*time.Millisecond, time.Millisecond, 5*time.Second, SourceFlag)
	tf := r.Float("t.float", "help", 0.9, 0.05, 1.0, SourceDefault)

	if ti.Load() != 100 || td.Load() != 50*time.Millisecond || tf.Load() != 0.9 {
		t.Fatal("baselines not seeded")
	}
	if td.Source() != SourceFlag {
		t.Fatalf("flag source lost: %v", td.Source())
	}

	// Typed Set clamps.
	if got := ti.Set(5000, SourceAdapted); got != 1000 {
		t.Fatalf("Set clamp high: got %d", got)
	}
	if got := ti.Set(1, SourceAdapted); got != 10 {
		t.Fatalf("Set clamp low: got %d", got)
	}
	if ti.Source() != SourceAdapted {
		t.Fatalf("source not updated: %v", ti.Source())
	}

	// SetFloat clamps too (durations move in seconds).
	if got := td.SetFloat(100, SourceAdapted); got != 5.0 {
		t.Fatalf("duration SetFloat clamp: got %g", got)
	}
	if td.Load() != 5*time.Second {
		t.Fatalf("duration store: got %v", td.Load())
	}

	// SetString is strict: out-of-bounds is an error, value untouched.
	if err := tf.SetString("2.0", SourceOverride); err == nil {
		t.Fatal("expected out-of-bounds error")
	}
	if tf.Load() != 0.9 {
		t.Fatalf("failed SetString must not move value: %g", tf.Load())
	}
	if err := tf.SetString("0.5", SourceOverride); err != nil {
		t.Fatalf("SetString: %v", err)
	}
	if tf.Load() != 0.5 || tf.Source() != SourceOverride {
		t.Fatalf("override not applied: %g %v", tf.Load(), tf.Source())
	}
	if err := ti.SetString("abc", SourceOverride); err == nil {
		t.Fatal("expected parse error")
	}

	// Registry views.
	if _, ok := r.Lookup("t.dur"); !ok {
		t.Fatal("Lookup miss")
	}
	list := r.List()
	if len(list) != 3 || list[0].Name() != "t.dur" && list[0].Name() != "t.float" && list[0].Name() != "t.int" {
		t.Fatalf("List: %d entries", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].Name() >= list[i].Name() {
			t.Fatal("List not sorted by name")
		}
	}
}

// TestTunableRefusesNaN: strconv parses "NaN", and NaN compares false with
// both bounds — the strict door must refuse it all the same, and the
// clamping one lands on min.
func TestTunableRefusesNaN(t *testing.T) {
	r := NewRegistry()
	tf := r.Float("t.float", "help", 0.9, 0.05, 1.0, SourceDefault)
	if err := tf.SetString("NaN", SourceOverride); err == nil || tf.Load() != 0.9 {
		t.Fatalf("SetString(NaN) = %v, value %g; want an error and 0.9", err, tf.Load())
	}
	if got := tf.SetFloat(math.NaN(), SourceAdapted); got != 0.05 {
		t.Fatalf("SetFloat(NaN) stored %g, want min 0.05", got)
	}
	mustPanic(t, "NaN baseline", func() { r.Float("nan", "h", math.NaN(), 0, 1, SourceDefault) })
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.Int("dup", "h", 1, 0, 10, SourceDefault)
	mustPanic(t, "duplicate name", func() { r.Float("dup", "h", 0.5, 0, 1, SourceDefault) })
	mustPanic(t, "baseline out of bounds", func() { r.Int("oob", "h", 100, 0, 10, SourceDefault) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}
