// Package obs is the zero-dependency observability layer of the serving
// stack: lock-free metric primitives, a Prometheus text-format registry,
// an online accuracy tracker, and structured-logging helpers.
//
// The design constraint is the same one that shaped internal/engine: the
// prediction hot path is lock-free (one atomic view load plus a dot
// product), and instrumentation must not give that back. Every hot-path
// record in this package is a handful of atomic adds:
//
//   - Counter / Gauge are single atomic.Int64 cells.
//   - Histogram is a log-bucketed (base-2 octaves × power-of-two
//     sub-buckets) array of atomic.Int64 cells. Observe computes the
//     bucket index with pure integer ops on the IEEE-754 bit pattern —
//     no math.Log, no branching search — then does two atomic adds and
//     one atomic float accumulate. Quantile estimation and Prometheus
//     exposition read the same cells without stopping writers.
//   - AccuracyTracker folds each (prediction, observation) pair into an
//     EMA and a relative-error Histogram, yielding live MRE (median
//     relative error) and NPRE (90th-percentile relative error) — the
//     paper's §V metrics as first-class runtime gauges.
//
// The Registry renders everything in proper Prometheus text exposition
// (`# HELP`/`# TYPE`, `_total` counters, `_seconds` units, histogram
// `_bucket`/`_sum`/`_count` series) and enforces naming conventions at
// registration time. ParseMetrics is the matching strict parser, used by
// the test suite to validate /metrics output and by examples to compute
// quantiles from a scrape.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sync/atomic"
)

// nameRE is the Prometheus metric/label naming grammar.
var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

func checkName(name string) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use; register it (or create it through a Registry) to expose it.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 panics: counters only go up).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: counter decrement")
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (may go up and down).
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat is a float64 cell updated with CAS on its bit pattern, used
// for histogram sums and EMA state.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Add accumulates v with a CAS loop (wait-free in the uncontended case).
func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}
