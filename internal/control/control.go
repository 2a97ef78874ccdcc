// Package control is the runtime control plane: typed tunables with
// declared bounds that hot paths read through a single atomic load, and a
// registry that makes every tunable discoverable (GET /api/v1/config,
// docs lints) and settable (PUT /api/v1/config).
//
// Construction seeds a *baseline* into the registry and the serving
// layers load the live value on each use, so a knob moves without a
// restart. Two writers set a tunable: operator flags (at startup) and
// explicit API overrides; an override outside the bounds declared at
// registration is refused.
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
// important: admission never sheds Critical, and Standard and Sheddable
// are shed when the predicted wait blows their class budget (Sheddable's
// is the tighter one).
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
	// SourceOverride: an explicit API override.
	SourceOverride
)

func (s Source) String() string {
	switch s {
	case SourceFlag:
		return "flag"
	case SourceOverride:
		return "override"
	default:
		return "default"
	}
}

// Tunable is the uniform view of a registered knob, used by the config
// API and the docs lint. The typed accessors (Int.Load, Duration.Load,
// Float.Load) are what hot paths call.
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
	// outside the declared bounds are an error.
	SetString(v string, src Source) error
}

// kind is everything that differs between an integer, a duration and a
// float tunable: what the config API calls it, and how the one 64-bit
// word a tunable stores converts to a string and compares.
type kind struct {
	name  string // Kind()
	noun  string // "not <noun>" in SetString's parse error
	parse func(string) (uint64, error)
	str   func(uint64) string
	less  func(a, b uint64) bool
	nan   func(uint64) bool // a word no bound can admit
}

func signedLess(a, b uint64) bool { return int64(a) < int64(b) }

var (
	intKind = &kind{
		name: "int", noun: "an integer",
		parse: func(s string) (uint64, error) {
			n, err := strconv.ParseInt(s, 10, 64)
			return uint64(n), err
		},
		str:  func(w uint64) string { return strconv.FormatInt(int64(w), 10) },
		less: signedLess,
		nan:  func(uint64) bool { return false },
	}
	durationKind = &kind{
		name: "duration", noun: "a duration",
		parse: func(s string) (uint64, error) {
			d, err := time.ParseDuration(s)
			return uint64(d), err
		},
		str:  func(w uint64) string { return time.Duration(w).String() },
		less: signedLess,
		nan:  func(uint64) bool { return false },
	}
	floatKind = &kind{
		name: "float", noun: "a float",
		parse: func(s string) (uint64, error) {
			f, err := strconv.ParseFloat(s, 64)
			return math.Float64bits(f), err
		},
		str:  func(w uint64) string { return strconv.FormatFloat(math.Float64frombits(w), 'g', -1, 64) },
		less: func(a, b uint64) bool { return math.Float64frombits(a) < math.Float64frombits(b) },
		nan:  func(w uint64) bool { return math.IsNaN(math.Float64frombits(w)) },
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

// outOfBounds reports a word below min, above max, or not a number.
func (t *tunable) outOfBounds(w uint64) bool {
	return t.k.less(w, t.min) || t.k.less(t.max, w) || t.k.nan(w)
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
// are applied — the initial value, which GET /api/v1/config reports
// beside the current one. Registration panics on
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
