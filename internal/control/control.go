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

// meta is the shared identity + source tracking for all tunable kinds.
type meta struct {
	name string
	help string
	src  atomic.Int32
}

func (m *meta) Name() string   { return m.name }
func (m *meta) Help() string   { return m.help }
func (m *meta) Source() Source { return Source(m.src.Load()) }

// Int is an integer tunable. Load is one atomic load.
type Int struct {
	meta
	v        atomic.Int64
	baseline int64
	min, max int64
}

func (t *Int) Load() int    { return int(t.v.Load()) }
func (t *Int) Kind() string { return "int" }
func (t *Int) Value() string {
	return strconv.FormatInt(t.v.Load(), 10)
}
func (t *Int) Baseline() string  { return strconv.FormatInt(t.baseline, 10) }
func (t *Int) MinString() string { return strconv.FormatInt(t.min, 10) }
func (t *Int) MaxString() string { return strconv.FormatInt(t.max, 10) }

// Set clamps v to bounds, stores it, and returns the stored value.
func (t *Int) Set(v int, src Source) int {
	c := clampI(int64(v), t.min, t.max)
	t.v.Store(c)
	t.src.Store(int32(src))
	return int(c)
}

func (t *Int) SetString(v string, src Source) error {
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return fmt.Errorf("%s: not an integer: %q", t.name, v)
	}
	if n < t.min || n > t.max {
		return fmt.Errorf("%s: %d out of bounds [%d, %d]", t.name, n, t.min, t.max)
	}
	t.v.Store(n)
	t.src.Store(int32(src))
	return nil
}

func (t *Int) Float() float64         { return float64(t.v.Load()) }
func (t *Int) BaselineFloat() float64 { return float64(t.baseline) }
func (t *Int) Bounds() (float64, float64) {
	return float64(t.min), float64(t.max)
}
func (t *Int) SetFloat(v float64, src Source) float64 {
	return float64(t.Set(int(math.Round(v)), src))
}

// Duration is a time.Duration tunable stored as nanoseconds.
type Duration struct {
	meta
	v        atomic.Int64
	baseline time.Duration
	min, max time.Duration
}

func (t *Duration) Load() time.Duration { return time.Duration(t.v.Load()) }
func (t *Duration) Kind() string        { return "duration" }
func (t *Duration) Value() string       { return time.Duration(t.v.Load()).String() }
func (t *Duration) Baseline() string    { return t.baseline.String() }
func (t *Duration) MinString() string   { return t.min.String() }
func (t *Duration) MaxString() string   { return t.max.String() }

func (t *Duration) Set(v time.Duration, src Source) time.Duration {
	c := time.Duration(clampI(int64(v), int64(t.min), int64(t.max)))
	t.v.Store(int64(c))
	t.src.Store(int32(src))
	return c
}

func (t *Duration) SetString(v string, src Source) error {
	d, err := time.ParseDuration(v)
	if err != nil {
		return fmt.Errorf("%s: not a duration: %q", t.name, v)
	}
	if d < t.min || d > t.max {
		return fmt.Errorf("%s: %s out of bounds [%s, %s]", t.name, d, t.min, t.max)
	}
	t.v.Store(int64(d))
	t.src.Store(int32(src))
	return nil
}

func (t *Duration) Float() float64         { return time.Duration(t.v.Load()).Seconds() }
func (t *Duration) BaselineFloat() float64 { return t.baseline.Seconds() }
func (t *Duration) Bounds() (float64, float64) {
	return t.min.Seconds(), t.max.Seconds()
}
func (t *Duration) SetFloat(v float64, src Source) float64 {
	return t.Set(time.Duration(v*float64(time.Second)), src).Seconds()
}

// Float is a float64 tunable stored as IEEE-754 bits.
type Float struct {
	meta
	bits     atomic.Uint64
	baseline float64
	min, max float64
}

func (t *Float) Load() float64 { return math.Float64frombits(t.bits.Load()) }
func (t *Float) Kind() string  { return "float" }
func (t *Float) Value() string {
	return strconv.FormatFloat(t.Load(), 'g', -1, 64)
}
func (t *Float) Baseline() string {
	return strconv.FormatFloat(t.baseline, 'g', -1, 64)
}
func (t *Float) MinString() string { return strconv.FormatFloat(t.min, 'g', -1, 64) }
func (t *Float) MaxString() string { return strconv.FormatFloat(t.max, 'g', -1, 64) }

func (t *Float) Set(v float64, src Source) float64 {
	c := clampF(v, t.min, t.max)
	t.bits.Store(math.Float64bits(c))
	t.src.Store(int32(src))
	return c
}

func (t *Float) SetString(v string, src Source) error {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return fmt.Errorf("%s: not a float: %q", t.name, v)
	}
	if f < t.min || f > t.max {
		return fmt.Errorf("%s: %g out of bounds [%g, %g]", t.name, f, t.min, t.max)
	}
	t.bits.Store(math.Float64bits(f))
	t.src.Store(int32(src))
	return nil
}

func (t *Float) Float() float64             { return t.Load() }
func (t *Float) BaselineFloat() float64     { return t.baseline }
func (t *Float) Bounds() (float64, float64) { return t.min, t.max }
func (t *Float) SetFloat(v float64, src Source) float64 {
	return t.Set(v, src)
}

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
	if baseline < min || baseline > max {
		panic(fmt.Sprintf("control: tunable %s baseline %d outside [%d, %d]", name, baseline, min, max))
	}
	t := &Int{baseline: int64(baseline), min: int64(min), max: int64(max)}
	t.name, t.help = name, help
	t.v.Store(int64(baseline))
	t.src.Store(int32(src))
	r.add(t)
	return t
}

// Duration registers a duration tunable (see Int for semantics).
func (r *Registry) Duration(name, help string, baseline, min, max time.Duration, src Source) *Duration {
	if baseline < min || baseline > max {
		panic(fmt.Sprintf("control: tunable %s baseline %s outside [%s, %s]", name, baseline, min, max))
	}
	t := &Duration{baseline: baseline, min: min, max: max}
	t.name, t.help = name, help
	t.v.Store(int64(baseline))
	t.src.Store(int32(src))
	r.add(t)
	return t
}

// Float registers a float tunable (see Int for semantics).
func (r *Registry) Float(name, help string, baseline, min, max float64, src Source) *Float {
	if baseline < min || baseline > max || min > max {
		panic(fmt.Sprintf("control: tunable %s baseline %g outside [%g, %g]", name, baseline, min, max))
	}
	t := &Float{baseline: baseline, min: min, max: max}
	t.name, t.help = name, help
	t.bits.Store(math.Float64bits(baseline))
	t.src.Store(int32(src))
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

func clampI(v, min, max int64) int64 {
	if v < min {
		return min
	}
	if v > max {
		return max
	}
	return v
}

func clampF(v, min, max float64) float64 {
	if v < min || math.IsNaN(v) {
		return min
	}
	if v > max {
		return max
	}
	return v
}
