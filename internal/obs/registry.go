package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Kind is a Prometheus metric family type.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one labeled time series inside a family. Exactly one of the
// value sources is set.
type series struct {
	labels  string // pre-rendered `k="v",k2="v2"` (no braces), "" for none
	counter *Counter
	gauge   *Gauge
	intFn   func() int64
	floatFn func() float64
	hist    *Histogram
}

// family is a named metric family: HELP + TYPE + its series.
type family struct {
	name string
	help string
	kind Kind

	mu     sync.Mutex
	series []*series
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration (New*, *Func) takes a lock and panics on
// naming-convention violations — it happens once at setup. The recording
// paths returned (Counter, Gauge, Histogram) are lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) addFamily(name, help string, kind Kind) *family {
	checkName(name)
	if help == "" {
		panic(fmt.Sprintf("obs: metric %s registered without help text", name))
	}
	// Enforce the Prometheus naming conventions the satellite task calls
	// for: counters end in _total, nothing else does.
	if kind == KindCounter && !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("obs: counter %s must end in _total", name))
	}
	if kind != KindCounter && strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("obs: non-counter %s must not end in _total", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric family %s", name))
	}
	f := &family{name: name, help: help, kind: kind}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

func (f *family) add(s *series) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.series = append(f.series, s)
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.addFamily(name, help, KindCounter).add(&series{counter: c})
	return c
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.addFamily(name, help, KindGauge).add(&series{gauge: g})
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.addFamily(name, help, KindGauge).add(&series{floatFn: fn})
}

// ConstGauge registers a gauge with a fixed value and a fixed multi-label
// set, given as key/value pairs — the amf_build_info idiom, where the
// payload is the labels and the value is a constant 1. Panics on an odd
// kv count or an invalid label key, like all registration-time errors.
func (r *Registry) ConstGauge(name, help string, value float64, kv ...string) {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: ConstGauge %s: odd key/value count", name))
	}
	var labels strings.Builder
	for i := 0; i < len(kv); i += 2 {
		checkName(kv[i])
		if i > 0 {
			labels.WriteString(",")
		}
		labels.WriteString(renderLabel(kv[i], kv[i+1]))
	}
	v := value
	r.addFamily(name, help, KindGauge).add(&series{labels: labels.String(), floatFn: func() float64 { return v }})
}

// CounterFunc registers a counter whose value is read at scrape time from
// an external monotonic source (e.g. the engine's accounting atomics).
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.addFamily(name, help, KindCounter).add(&series{intFn: fn})
}

// RegisterHistogram exposes an externally created histogram (e.g. the
// serving engine's) under the given family name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.addFamily(name, help, KindHistogram).add(&series{hist: h})
}

// ---------------------------------------------------------------------------
// Labeled vectors. One label key per vector keeps rendering and the strict
// parser simple while covering our needs (per-route, per-status-class).

// CounterVec is a counter family partitioned by one label.
type CounterVec struct {
	f     *family
	label string

	mu       sync.Mutex
	children map[string]*Counter
}

// NewCounterVec registers a counter family whose series are distinguished
// by the given label key.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	checkName(label)
	return &CounterVec{f: r.addFamily(name, help, KindCounter), label: label, children: make(map[string]*Counter)}
}

// With returns the counter for one label value, creating it on first use.
// Resolve children once at setup; With takes a lock.
func (v *CounterVec) With(value string) *Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[value]
	if !ok {
		c = &Counter{}
		v.children[value] = c
		v.f.add(&series{labels: renderLabel(v.label, value), counter: c})
	}
	return c
}

// CounterFuncVec is a counter family partitioned by one label whose
// series values are read at scrape time from external monotonic sources
// (e.g. the engine's per-reason drop accounting).
type CounterFuncVec struct {
	f     *family
	label string
}

// NewCounterFuncVec registers a scrape-time counter family distinguished
// by the given label key. Add series with With.
func (r *Registry) NewCounterFuncVec(name, help, label string) *CounterFuncVec {
	checkName(label)
	return &CounterFuncVec{f: r.addFamily(name, help, KindCounter), label: label}
}

// With adds one labeled series backed by fn. Call once per label value at
// setup — duplicate values would render duplicate series.
func (v *CounterFuncVec) With(value string, fn func() int64) {
	v.f.add(&series{labels: renderLabel(v.label, value), intFn: fn})
}

// HistogramVec is a histogram family partitioned by one label.
type HistogramVec struct {
	f        *family
	label    string
	min, max float64
	sub      int

	mu       sync.Mutex
	children map[string]*Histogram
}

// NewHistogramVec registers a histogram family whose series are
// distinguished by the given label key; each child covers [min, max) with
// sub sub-buckets per octave.
func (r *Registry) NewHistogramVec(name, help, label string, min, max float64, sub int) *HistogramVec {
	checkName(label)
	return &HistogramVec{
		f: r.addFamily(name, help, KindHistogram), label: label,
		min: min, max: max, sub: sub,
		children: make(map[string]*Histogram),
	}
}

// With returns the histogram for one label value, creating it on first
// use. Resolve children once at setup; With takes a lock.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.children[value]
	if !ok {
		h = NewHistogram(v.min, v.max, v.sub)
		v.children[value] = h
		v.f.add(&series{labels: renderLabel(v.label, value), hist: h})
	}
	return h
}

// ---------------------------------------------------------------------------
// Exposition.

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func renderLabel(k, v string) string {
	return k + `="` + escapeLabelValue(v) + `"`
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders every family in the text exposition format:
// `# HELP`/`# TYPE` headers, then one line per series (histograms expand
// into cumulative `_bucket{le=...}` series plus `_sum` and `_count`).
// Families appear in registration order, series in creation order; both
// are stable across scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	for _, f := range fams {
		f.write(bw)
	}
	return bw.Flush()
}

func (f *family) write(w *bufio.Writer) {
	fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
	f.mu.Lock()
	ss := make([]*series, len(f.series))
	copy(ss, f.series)
	f.mu.Unlock()
	for _, s := range ss {
		s.write(w, f.name)
	}
}

func (s *series) write(w *bufio.Writer, name string) {
	switch {
	case s.hist != nil:
		s.writeHistogram(w, name)
	case s.counter != nil:
		writeSample(w, name, s.labels, strconv.FormatInt(s.counter.Value(), 10))
	case s.gauge != nil:
		writeSample(w, name, s.labels, strconv.FormatInt(s.gauge.Value(), 10))
	case s.intFn != nil:
		writeSample(w, name, s.labels, strconv.FormatInt(s.intFn(), 10))
	case s.floatFn != nil:
		writeSample(w, name, s.labels, formatFloat(s.floatFn()))
	}
}

func writeSample(w *bufio.Writer, name, labels, value string) {
	w.WriteString(name)
	if labels != "" {
		w.WriteString("{")
		w.WriteString(labels)
		w.WriteString("}")
	}
	w.WriteString(" ")
	w.WriteString(value)
	w.WriteString("\n")
}

// writeHistogram emits the cumulative bucket series. Empty buckets are
// elided to keep scrapes compact — except that the bucket immediately
// below each emitted one is always included, so a consumer interpolating
// quantiles from the scrape sees tight lower bounds. The `le="+Inf"`
// bucket, `_sum`, and `_count` are always present, and cumulative counts
// derive from a single snapshot, so `+Inf` == `_count` holds exactly.
func (s *series) writeHistogram(w *bufio.Writer, name string) {
	h := s.hist
	cum, total := h.snapshot()
	bucketLabels := func(le string) string {
		if s.labels == "" {
			return `le="` + le + `"`
		}
		return s.labels + `,le="` + le + `"`
	}
	last := -2 // index of the last emitted bucket
	prev := int64(0)
	for i, c := range cum {
		if c == prev { // empty bucket
			prev = c
			continue
		}
		if i-1 > last && i > 0 {
			writeSample(w, name+"_bucket", bucketLabels(formatFloat(h.UpperBound(i-1))), strconv.FormatInt(cum[i-1], 10))
		}
		writeSample(w, name+"_bucket", bucketLabels(formatFloat(h.UpperBound(i))), strconv.FormatInt(c, 10))
		last = i
		prev = c
	}
	writeSample(w, name+"_bucket", bucketLabels("+Inf"), strconv.FormatInt(total, 10))
	writeSample(w, name+"_sum", s.labels, formatFloat(h.Sum()))
	writeSample(w, name+"_count", s.labels, strconv.FormatInt(total, 10))
}
