// Package control is the runtime control plane: typed tunables with
// declared bounds that hot paths read through a single atomic load, a
// registry that makes every tunable discoverable (GET /api/v1/config,
// docs lints), and an epoch controller (controller.go) that adapts
// registered tunables from free observability signals.
//
// The design inverts the repo's original configuration flow. Before,
// every knob (-publish-interval, batch caps, queue watermarks) was
// frozen into a struct field at construction; changing one meant a
// restart. Now construction seeds a *baseline* into the registry and
// the serving layers load the live value on each use. Three writers may
// move a tunable after construction — operator flags (at startup), the
// epoch controller (within bounds), and explicit API overrides (which
// pin the value so the controller leaves it alone) — and every write is
// clamped to the bounds declared at registration.
//
// The package also owns the SLO class vocabulary (critical / standard /
// sheddable) carried end to end in the X-Amf-Slo-Class header, because
// engine, server, and cluster all need it and control sits below all
// three in the import graph.
package control

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Class is a request's SLO class. Classes order from most to least
// important: admission never sheds Critical, Standard is shed only
// when its latency budget is blown, and Sheddable is the first tier
// sacrificed under overload (the engine's async ingest queue is
// treated as sheddable-class work).
type Class uint8

const (
	Critical Class = iota
	Standard
	Sheddable
	// NumClasses sizes per-class arrays indexed by Class.
	NumClasses = 3
)

// ClassHeader is the HTTP header carrying the SLO class end to end
// (client → gateway → server).
const ClassHeader = "X-Amf-Slo-Class"

func (c Class) String() string {
	switch c {
	case Critical:
		return "critical"
	case Sheddable:
		return "sheddable"
	default:
		return "standard"
	}
}

// Classes lists every SLO class, most important first.
func Classes() []Class { return []Class{Critical, Standard, Sheddable} }

// ParseClass maps the wire form to a Class. Unknown or empty strings
// report ok=false; callers default to Standard.
func ParseClass(s string) (Class, bool) {
	switch s {
	case "critical":
		return Critical, true
	case "standard":
		return Standard, true
	case "sheddable":
		return Sheddable, true
	}
	return Standard, false
}

// ClassFromHeader reads the request's SLO class, defaulting to
// Standard when the header is absent or unrecognised.
func ClassFromHeader(h http.Header) Class {
	c, _ := ParseClass(h.Get(ClassHeader))
	return c
}

// Source records where a tunable's current value came from.
type Source int32

const (
	// SourceDefault: the package default seeded at registration.
	SourceDefault Source = iota
	// SourceFlag: an operator flag supplied the baseline.
	SourceFlag
	// SourceAdapted: the epoch controller moved the value.
	SourceAdapted
	// SourceOverride: an explicit API override. Overridden tunables
	// are pinned — the controller skips them until the override is
	// cleared by another Set.
	SourceOverride
)

func (s Source) String() string {
	switch s {
	case SourceFlag:
		return "flag"
	case SourceAdapted:
		return "adapted"
	case SourceOverride:
		return "override"
	default:
		return "default"
	}
}

// Tunable is the uniform view of a registered knob, used by the config
// API, the docs lint, and the epoch controller. The typed accessors
// (Int.Load, Duration.Load, Float.Load) are what hot paths call.
type Tunable interface {
	Name() string
	Help() string
	Kind() string
	Source() Source

	// String forms for the config API and docs.
	Value() string
	Baseline() string
	MinString() string
	MaxString() string

	// SetString parses and applies v with the given source. Values
	// outside the declared bounds are an error (the API is strict);
	// the controller's float path clamps instead.
	SetString(v string, src Source) error

	// Float view for the controller: current value, baseline, and
	// bounds mapped to float64 (durations in seconds).
	Float() float64
	BaselineFloat() float64
	Bounds() (min, max float64)
	// SetFloat clamps v to bounds, applies it, and returns the value
	// actually stored.
	SetFloat(v float64, src Source) float64
}

// kind is everything that differs between an integer, a duration and a
// float tunable: what the config API calls it, and how the one 64-bit
// word a tunable stores converts to a string, to the controller's
// float64 and back, and compares.
type kind struct {
	name  string // Kind()
	noun  string // "not <noun>" in SetString's parse error
	parse func(string) (uint64, error)
	str   func(uint64) string
	float func(uint64) float64 // durations in seconds
	word  func(float64) uint64 // inverse of float, rounding as the kind does
	less  func(a, b uint64) bool
}

func signedLess(a, b uint64) bool { return int64(a) < int64(b) }

var (
	intKind = &kind{
		name: "int", noun: "an integer",
		parse: func(s string) (uint64, error) {
			n, err := strconv.ParseInt(s, 10, 64)
			return uint64(n), err
		},
		str:   func(w uint64) string { return strconv.FormatInt(int64(w), 10) },
		float: func(w uint64) float64 { return float64(int64(w)) },
		word:  func(f float64) uint64 { return uint64(int64(math.Round(f))) },
		less:  signedLess,
	}
	durationKind = &kind{
		name: "duration", noun: "a duration",
		parse: func(s string) (uint64, error) {
			d, err := time.ParseDuration(s)
			return uint64(d), err
		},
		str:   func(w uint64) string { return time.Duration(w).String() },
		float: func(w uint64) float64 { return time.Duration(w).Seconds() },
		word:  func(f float64) uint64 { return uint64(time.Duration(f * float64(time.Second))) },
		less:  signedLess,
	}
	floatKind = &kind{
		name: "float", noun: "a float",
		parse: func(s string) (uint64, error) {
			f, err := strconv.ParseFloat(s, 64)
			return math.Float64bits(f), err
		},
		str:   func(w uint64) string { return strconv.FormatFloat(math.Float64frombits(w), 'g', -1, 64) },
		float: math.Float64frombits,
		word:  math.Float64bits,
		less:  func(a, b uint64) bool { return math.Float64frombits(a) < math.Float64frombits(b) },
	}
)

// tunable is the one implementation of Tunable: a value, its baseline and
// its bounds as words of one kind. Int, Duration and Float wrap it with
// the typed Load their hot paths call.
type tunable struct {
	name, help         string
	k                  *kind
	v                  atomic.Uint64
	src                atomic.Int32
	baseline, min, max uint64
}

// init seeds a tunable at registration; a baseline outside its own bounds
// is a programmer error.
func (t *tunable) init(k *kind, name, help string, baseline, min, max uint64, src Source) {
	t.name, t.help, t.k = name, help, k
	t.baseline, t.min, t.max = baseline, min, max
	if t.outOfBounds(baseline) {
		panic(fmt.Sprintf("control: tunable %s baseline %s outside [%s, %s]", name, k.str(baseline), k.str(min), k.str(max)))
	}
	t.v.Store(baseline)
	t.src.Store(int32(src))
}

func (t *tunable) Name() string      { return t.name }
func (t *tunable) Help() string      { return t.help }
func (t *tunable) Kind() string      { return t.k.name }
func (t *tunable) Source() Source    { return Source(t.src.Load()) }
func (t *tunable) Value() string     { return t.k.str(t.v.Load()) }
func (t *tunable) Baseline() string  { return t.k.str(t.baseline) }
func (t *tunable) MinString() string { return t.k.str(t.min) }
func (t *tunable) MaxString() string { return t.k.str(t.max) }

func (t *tunable) Float() float64         { return t.k.float(t.v.Load()) }
func (t *tunable) BaselineFloat() float64 { return t.k.float(t.baseline) }
func (t *tunable) Bounds() (float64, float64) {
	return t.k.float(t.min), t.k.float(t.max)
}

// outOfBounds reports a word below min, above max, or not a number.
func (t *tunable) outOfBounds(w uint64) bool {
	return t.k.less(w, t.min) || t.k.less(t.max, w) || math.IsNaN(t.k.float(w))
}

// set clamps w to bounds (a NaN to min), stores it, and returns the
// stored word.
func (t *tunable) set(w uint64, src Source) uint64 {
	switch {
	case t.k.less(t.max, w):
		w = t.max
	case t.outOfBounds(w):
		w = t.min
	}
	t.v.Store(w)
	t.src.Store(int32(src))
	return w
}

func (t *tunable) SetFloat(v float64, src Source) float64 {
	return t.k.float(t.set(t.k.word(v), src))
}

func (t *tunable) SetString(v string, src Source) error {
	w, err := t.k.parse(v)
	if err != nil {
		return fmt.Errorf("%s: not %s: %q", t.name, t.k.noun, v)
	}
	if t.outOfBounds(w) {
		return fmt.Errorf("%s: %s out of bounds [%s, %s]", t.name, t.k.str(w), t.MinString(), t.MaxString())
	}
	t.v.Store(w)
	t.src.Store(int32(src))
	return nil
}

// Int is an integer tunable. Load is one atomic load.
type Int struct{ tunable }

func (t *Int) Load() int { return int(t.v.Load()) }

// Set clamps v to bounds, stores it, and returns the stored value.
func (t *Int) Set(v int, src Source) int { return int(t.set(uint64(v), src)) }

// Duration is a time.Duration tunable stored as nanoseconds.
type Duration struct{ tunable }

func (t *Duration) Load() time.Duration { return time.Duration(t.v.Load()) }

// Float is a float64 tunable stored as IEEE-754 bits.
type Float struct{ tunable }

func (t *Float) Load() float64 { return math.Float64frombits(t.v.Load()) }

// Registry holds every tunable a process has declared. Registration
// happens at construction time (engine.New, Server.EnableAdmission);
// lookups after that are read-only and lock-free for hot paths (the
// mutex only guards the name map during registration and List).
type Registry struct {
	mu     sync.Mutex
	byName map[string]Tunable
	order  []Tunable
}

func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Tunable)}
}

// Int registers an integer tunable. baseline is the value after flags
// are applied — it is both the initial value and the target the epoch
// controller relaxes back to when load subsides. Registration panics on
// duplicate names or a baseline outside [min, max]: both are programmer
// errors caught by any test that constructs the component.
func (r *Registry) Int(name, help string, baseline, min, max int, src Source) *Int {
	t := &Int{}
	t.init(intKind, name, help, uint64(baseline), uint64(min), uint64(max), src)
	r.add(t)
	return t
}

// Duration registers a duration tunable (see Int for semantics).
func (r *Registry) Duration(name, help string, baseline, min, max time.Duration, src Source) *Duration {
	t := &Duration{}
	t.init(durationKind, name, help, uint64(baseline), uint64(min), uint64(max), src)
	r.add(t)
	return t
}

// Float registers a float tunable (see Int for semantics).
func (r *Registry) Float(name, help string, baseline, min, max float64, src Source) *Float {
	t := &Float{}
	t.init(floatKind, name, help, math.Float64bits(baseline), math.Float64bits(min), math.Float64bits(max), src)
	r.add(t)
	return t
}

func (r *Registry) add(t Tunable) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[t.Name()]; dup {
		panic("control: duplicate tunable " + t.Name())
	}
	r.byName[t.Name()] = t
	r.order = append(r.order, t)
}

// Lookup finds a tunable by name.
func (r *Registry) Lookup(name string) (Tunable, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byName[name]
	return t, ok
}

// List returns every registered tunable sorted by name.
func (r *Registry) List() []Tunable {
	r.mu.Lock()
	out := make([]Tunable, len(r.order))
	copy(out, r.order)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
