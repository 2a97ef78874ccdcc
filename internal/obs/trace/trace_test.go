package trace

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	id := NewID()
	parent := nextSpanID()
	v := HeaderValue(id, parent)
	if len(v) != 49 {
		t.Fatalf("header length = %d, want 49 (%q)", len(v), v)
	}
	got, gotParent, ok := ParseHeader(v)
	if !ok {
		t.Fatalf("ParseHeader(%q) not ok", v)
	}
	if got != id || gotParent != parent {
		t.Fatalf("round trip: got (%v,%v), want (%v,%v)", got, gotParent, id, parent)
	}
}

func TestParseHeaderRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"short",
		// right length, wrong separator position
		"00000000000000000000000000000001x0000000000000001",
		// zero trace ID
		"00000000000000000000000000000000-0000000000000001",
		// non-hex digits
		"zz000000000000000000000000000001-0000000000000001",
		"00000000000000000000000000000001-zz00000000000001",
		// too long
		HeaderValue(NewID(), 1) + "0",
	}
	for _, v := range bad {
		if _, _, ok := ParseHeader(v); ok {
			t.Errorf("ParseHeader(%q) = ok, want reject", v)
		}
	}
}

// FuzzParseHeader: X-Amf-Trace is a header any client can send, so its
// parser must never panic, and whatever it accepts must be the header
// HeaderValue writes for what it parsed, up to the case of the hex digits:
// a value that parses is one the gateway could have sent.
func FuzzParseHeader(f *testing.F) {
	f.Add(HeaderValue(ID{Hi: 1, Lo: 2}, 3))
	f.Add("0123456789ABCDEF0123456789abcdef-FEDCBA9876543210")
	f.Add("00000000000000000000000000000000-0000000000000001")
	f.Add("+123456789abcdef0123456789abcdef-0123456789abcdef")
	f.Add("0x23456789abcdef0123456789abcdef-0123456789abcdef")
	f.Add("0123456789abcdef_123456789abcdef-0123456789abcdef")
	f.Add("")
	f.Fuzz(func(t *testing.T, v string) {
		id, parent, ok := ParseHeader(v)
		if !ok {
			return
		}
		if id.IsZero() {
			t.Fatalf("ParseHeader(%q) accepted the zero trace ID", v)
		}
		if got := HeaderValue(id, parent); got != strings.ToLower(v) {
			t.Fatalf("ParseHeader(%q) = %v, %v; HeaderValue of that is %q", v, id, parent, got)
		}
	})
}

func TestIDUniqueness(t *testing.T) {
	seen := make(map[ID]bool)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if id.IsZero() {
			t.Fatal("minted zero ID")
		}
		if seen[id] {
			t.Fatalf("duplicate ID %v", id)
		}
		seen[id] = true
	}
}

func TestNilSpanMethodsNoop(t *testing.T) {
	var sp *Span
	sp.Annotate("k", time.Millisecond)
	sp.SetError()
	sp.Finish(time.Millisecond) // must not panic
	r := NewRecorder(Config{})
	if child := r.StartChild(nil, "x"); child != nil {
		t.Fatalf("StartChild(nil) = %#v, want nil", child)
	}
}

func TestRecorderRetainsSlowAndErrored(t *testing.T) {
	r := NewRecorder(Config{Capacity: 4, RetainedCapacity: 8, SlowThreshold: 100 * time.Millisecond})

	slow := r.Start(NewID(), 0, "slow")
	slow.Annotate("queue_wait", 40*time.Millisecond)
	slow.Finish(150 * time.Millisecond)

	failed := r.Start(NewID(), 0, "failed")
	failed.SetError()
	failed.Finish(time.Millisecond)

	// Churn the recent ring far past its capacity with fast spans.
	for i := 0; i < 16; i++ {
		r.Start(NewID(), 0, "fast").Finish(time.Millisecond)
	}

	traces, _ := r.snapshot()
	found := map[string]bool{}
	for _, tr := range traces {
		for _, sp := range tr.Spans {
			found[sp.Name] = true
		}
	}
	if !found["slow"] {
		t.Error("slow span evicted; want retained")
	}
	if !found["failed"] {
		t.Error("failed span evicted; want retained")
	}
}

func TestSnapshotDedupsAndGroups(t *testing.T) {
	r := NewRecorder(Config{Capacity: 8, SlowThreshold: time.Millisecond})
	root := r.Start(NewID(), 0, "root")
	child := r.StartChild(root, "child")
	// A span is dead after Finish: read what the checks need first.
	traceID, rootID := root.Trace, root.ID
	child.Finish(5 * time.Millisecond) // slow → lands in both rings
	root.Finish(10 * time.Millisecond)

	traces, _ := r.snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1 (%v)", len(traces), traces)
	}
	tr := traces[0]
	if tr.Trace != traceID.String() {
		t.Fatalf("trace id %q, want %q", tr.Trace, traceID)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("got %d spans, want 2 (dedup across rings failed?): %+v", len(tr.Spans), tr.Spans)
	}
	var gotChild spanJSON
	for _, sp := range tr.Spans {
		if sp.Name == "child" {
			gotChild = sp
		}
	}
	if gotChild.Parent != rootID.String() {
		t.Fatalf("child parent %q, want %q", gotChild.Parent, rootID)
	}
}

func TestServeHTTPFiltersByTrace(t *testing.T) {
	r := NewRecorder(Config{})
	a := r.Start(NewID(), 0, "a")
	aTrace := a.Trace.String()
	a.Annotate("journal", 2*time.Millisecond)
	a.Finish(3 * time.Millisecond)
	b := r.Start(NewID(), 0, "b")
	b.Finish(time.Millisecond)

	req := httptest.NewRequest("GET", "/debug/traces?trace="+aTrace, nil)
	w := httptest.NewRecorder()
	r.ServeHTTP(w, req)

	var resp tracesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, w.Body.String())
	}
	if len(resp.Traces) != 1 || resp.Traces[0].Trace != aTrace {
		t.Fatalf("filter failed: %+v", resp.Traces)
	}
	ann := resp.Traces[0].Spans[0].Annotations
	if ann["journal"] != 2 {
		t.Fatalf("annotation journal = %v ms, want 2", ann["journal"])
	}
	if resp.Started != 2 || resp.Finished != 2 {
		t.Fatalf("counters started=%d finished=%d, want 2/2", resp.Started, resp.Finished)
	}
}

// TestRecycledSpansStayConsistent runs Start/Annotate/Finish on several
// goroutines, so pooled spans and ring slots are reused while another
// goroutine scrapes the recorder. Every span's name and notes encode its
// own trace ID: a rendered span carrying another span's name or notes
// (a copy torn by a concurrent recycle, or a slot's old notes leaking
// into a new span) fails, and so does a started/finished mismatch once
// every span is finished. Run it under -race.
func TestRecycledSpansStayConsistent(t *testing.T) {
	r := NewRecorder(Config{Capacity: 16, RetainedCapacity: 8, SlowThreshold: time.Millisecond})
	const workers, perWorker = 4, 400
	scrape := func() tracesResponse {
		w := httptest.NewRecorder()
		r.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces", nil))
		var resp tracesResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Errorf("bad JSON: %v", err)
		}
		return resp
	}
	// check returns the first inconsistency a scrape shows, or nil.
	check := func(resp tracesResponse) error {
		if resp.Finished > resp.Started {
			return fmt.Errorf("counters started=%d finished=%d: more finished than started", resp.Started, resp.Finished)
		}
		for _, tj := range resp.Traces {
			id, _, ok := ParseHeader(tj.Trace + "-0000000000000000")
			if !ok {
				return fmt.Errorf("unparsable trace ID %q", tj.Trace)
			}
			want := notesFor(id)
			for _, sp := range tj.Spans {
				if sp.Name != "span "+tj.Trace {
					return fmt.Errorf("trace %s renders a span named %q", tj.Trace, sp.Name)
				}
				if len(sp.Annotations) != len(want) {
					return fmt.Errorf("trace %s: %d notes, want %d", tj.Trace, len(sp.Annotations), len(want))
				}
				for _, a := range want {
					if got, ok := sp.Annotations[a.Key]; !ok || got != float64(a.D)/1e6 {
						return fmt.Errorf("trace %s: note %s = %v (present %v), want %v", tj.Trace, a.Key, got, ok, float64(a.D)/1e6)
					}
				}
			}
		}
		return nil
	}

	done := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				scraped <- nil
				return
			default:
				if err := check(scrape()); err != nil {
					scraped <- err
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := NewID()
				notes := notesFor(id)
				sp := r.Start(id, 0, "span "+id.String())
				for _, a := range notes {
					sp.Annotate(a.Key, a.D)
				}
				if i%5 == 0 {
					sp.SetError()
				}
				sp.Finish(time.Duration(i%3) * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	close(done)
	if err := <-scraped; err != nil {
		t.Fatalf("concurrent scrape: %v", err)
	}
	resp := scrape()
	if err := check(resp); err != nil {
		t.Fatalf("final scrape: %v", err)
	}
	if total := uint64(workers * perWorker); resp.Started != total || resp.Finished != total {
		t.Fatalf("counters started=%d finished=%d, want %d/%d", resp.Started, resp.Finished, total, total)
	}
}

// notesFor derives one to four notes from a trace ID, keyed and valued by it.
func notesFor(id ID) []Annotation {
	notes := make([]Annotation, 1+id.Lo%4)
	for i := range notes {
		notes[i] = Annotation{Key: fmt.Sprintf("%s/%d", id, i), D: time.Duration(id.Lo%1e6 + uint64(i))}
	}
	return notes
}
