// Package trace is the distributed-tracing half of the observability
// layer: zero-dependency spans that follow one request across the
// gateway, a shard leader, the serving engine, and the WAL.
//
// The design mirrors internal/obs rather than OpenTelemetry: no wire
// protocol beyond one HTTP header, no exporter, no background pipeline.
// A process that participates in a trace holds a Recorder (a bounded
// ring of completed spans with tail-based retention for the slow and
// failed ones) and serves it as JSON from GET /debug/traces. Correlation
// across processes is purely by ID: the gateway mints a 128-bit trace ID,
// stamps it on every proxied request as
//
//	X-Amf-Trace: <32 hex trace id>-<16 hex parent span id>
//
// and each hop that adopts the header records its own spans under the
// same trace ID. An operator (or test) joins the hops by asking each
// process's /debug/traces for that ID — there is deliberately no
// central collector to deploy or depend on.
//
// Span recording is kept off the hot path's budget the same way the
// metrics are: a request that carries no trace header costs one header
// map index and nothing else. A traced request allocates nothing for its
// spans: Start takes one from a pool with an atomic add, and Finish
// copies it into the recorder's rings under one mutex and returns it to
// the pool. What a traced hop does allocate is the header values it
// stamps.
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"strconv"
	"sync/atomic"
	"time"
)

// Header is the trace-propagation header, spelled in canonical MIME form
// so direct header-map indexing (the fast path in the server middleware)
// works without a canonicalization pass.
const Header = "X-Amf-Trace"

// ID is a 128-bit trace identifier, rendered as 32 lowercase hex digits.
type ID struct {
	Hi, Lo uint64
}

// IsZero reports whether the ID is unset. Zero IDs are never minted.
func (id ID) IsZero() bool { return id.Hi == 0 && id.Lo == 0 }

func (id ID) String() string {
	var buf [32]byte
	hex16(buf[:16], id.Hi)
	hex16(buf[16:], id.Lo)
	return string(buf[:])
}

// SpanID is a 64-bit span identifier, rendered as 16 hex digits.
type SpanID uint64

func (s SpanID) String() string {
	var buf [16]byte
	hex16(buf[:], uint64(s))
	return string(buf[:])
}

const hexDigits = "0123456789abcdef"

func hex16(dst []byte, v uint64) {
	for i := 15; i >= 0; i-- {
		dst[i] = hexDigits[v&0xf]
		v >>= 4
	}
}

// idState seeds the process's ID generators: the trace-ID high half is
// process-random (uniqueness across processes), the low half and span
// IDs count up from random starting points (uniqueness within one).
var (
	idHi   uint64
	idLo   atomic.Uint64
	spanID atomic.Uint64
)

func init() {
	var seed [24]byte
	if _, err := rand.Read(seed[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; here a
		// time-derived fallback only weakens cross-process uniqueness.
		binary.LittleEndian.PutUint64(seed[:8], uint64(time.Now().UnixNano()))
	}
	idHi = binary.LittleEndian.Uint64(seed[:8]) | 1 // never zero
	idLo.Store(binary.LittleEndian.Uint64(seed[8:16]) | 1)
	spanID.Store(binary.LittleEndian.Uint64(seed[16:]) | 1)
}

// NewID mints a trace ID: process-random high half, counting low half.
func NewID() ID { return ID{Hi: idHi, Lo: idLo.Add(1)} }

func nextSpanID() SpanID { return SpanID(spanID.Add(1)) }

// HeaderValue renders the propagation header for a trace and the
// caller's span (the callee's parent).
func HeaderValue(id ID, parent SpanID) string {
	var buf [49]byte
	hex16(buf[:16], id.Hi)
	hex16(buf[16:32], id.Lo)
	buf[32] = '-'
	hex16(buf[33:], uint64(parent))
	return string(buf[:])
}

// ParseHeader parses a propagation header. Malformed values report
// ok=false — the receiver then treats the request as untraced rather
// than failing it.
func ParseHeader(v string) (id ID, parent SpanID, ok bool) {
	if len(v) != 49 || v[32] != '-' {
		return ID{}, 0, false
	}
	hi, err := strconv.ParseUint(v[:16], 16, 64)
	if err != nil {
		return ID{}, 0, false
	}
	lo, err := strconv.ParseUint(v[16:32], 16, 64)
	if err != nil {
		return ID{}, 0, false
	}
	p, err := strconv.ParseUint(v[33:], 16, 64)
	if err != nil {
		return ID{}, 0, false
	}
	id = ID{Hi: hi, Lo: lo}
	if id.IsZero() {
		return ID{}, 0, false
	}
	return id, SpanID(p), true
}

// Annotation is one named sub-timing inside a span (queue wait, journal
// append, model apply, ...).
type Annotation struct {
	Key string
	D   time.Duration
}

// Span is one timed operation inside a trace. Spans are created through
// a Recorder and annotated and finished by exactly one goroutine. A span
// is dead after Finish: the recorder's rings keep a copy of it, notes
// included, and the span itself goes back to a pool for a later Start,
// so nothing may read or write it (or keep a pointer to it) once Finish
// is called. All methods are nil-receiver safe so call sites on the
// untraced path need no guards.
type Span struct {
	Trace    ID
	ID       SpanID
	Parent   SpanID
	Name     string
	Start    time.Time
	Duration time.Duration
	Err      bool
	Notes    []Annotation

	rec *Recorder
}

// Annotate attaches a named duration to the span.
func (sp *Span) Annotate(key string, d time.Duration) {
	if sp == nil {
		return
	}
	sp.Notes = append(sp.Notes, Annotation{Key: key, D: d})
}

// SetError marks the span failed; failed spans ride the retained ring
// regardless of duration.
func (sp *Span) SetError() {
	if sp == nil {
		return
	}
	sp.Err = true
}

// Finish completes the span with the given duration (measured by the
// caller, which usually already timed the request), records a copy of it
// and recycles the span: it must not be touched afterwards.
func (sp *Span) Finish(d time.Duration) {
	if sp == nil {
		return
	}
	sp.Duration = d
	sp.rec.record(sp)
	*sp = Span{Notes: sp.Notes[:0]}
	spanPool.Put(sp)
}

// FinishNow completes the span with the time elapsed since Start, for
// callers that did not time the operation themselves.
func (sp *Span) FinishNow() {
	if sp == nil {
		return
	}
	sp.Finish(time.Since(sp.Start))
}
