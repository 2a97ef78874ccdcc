package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"github.com/qoslab/amf/internal/engine"
	"github.com/qoslab/amf/internal/store"
	"github.com/qoslab/amf/internal/stream"
)

// span is one timed call from a layer into the next. Times are offsets
// from the tracer's start; parent is an index into the tracer's spans (-1
// for a root), request numbers the client request that caused it.
type span struct {
	Name    string        `json:"name"`
	Request int           `json:"request"`
	Parent  int           `json:"parent"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory. The benchmark has one request in flight,
// so "the innermost open span" identifies the caller even when the callee
// runs on another goroutine (the engine's writer calls the journal while
// the request goroutine waits): open is that stack.
type tracer struct {
	mu      sync.Mutex
	on      bool
	t0      time.Time
	spans   []span
	open    []int
	request int
}

func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	if on && t.t0.IsZero() {
		t.t0 = time.Now()
	}
	t.mu.Unlock()
}

// begin opens a span under the innermost open one and returns its index,
// or -1 while tracing is off. A root span starts a new request.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	} else {
		t.request++
	}
	t.spans = append(t.spans, span{Name: name, Request: t.request, Parent: parent})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	t.spans[i].Start = time.Since(t.t0) // last, so the lock wait is outside the span
	return i
}

func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].End = now
	if j := slices.Index(t.open, i); j >= 0 {
		t.open = slices.Delete(t.open, j, j+1)
	}
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of it that
// its direct children cover; overlapping children are counted once.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		slices.SortFunc(kids, func(a, b int) int { return int(spans[a].Start - spans[b].Start) })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// write dumps the spans as JSON lines under out/.
func (t *tracer) write(name string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedJournal is the decorator set with Engine.SetJournal: the WAL
// itself, with a span around the two calls the engine's write path makes
// into it. It keeps the group-commit interface, so acks stay pipelined.
type tracedJournal struct {
	*store.WAL
	t *tracer
}

var _ engine.DurableJournal = tracedJournal{}

func (j tracedJournal) AppendSamples(ss []stream.Sample) (uint64, error) {
	sp := j.t.begin("store.append")
	seq, err := j.WAL.AppendSamples(ss)
	j.t.end(sp)
	return seq, err
}

func (j tracedJournal) WaitDurable(seq uint64) error {
	sp := j.t.begin("store.wait_durable")
	err := j.WAL.WaitDurable(seq)
	j.t.end(sp)
	return err
}
