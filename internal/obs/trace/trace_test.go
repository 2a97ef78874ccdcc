package trace

import (
	"encoding/json"
	"net/http/httptest"
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

	traces := r.snapshot()
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
	child.Finish(5 * time.Millisecond) // slow → lands in both rings
	root.Finish(10 * time.Millisecond)

	traces := r.snapshot()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1 (%v)", len(traces), traces)
	}
	tr := traces[0]
	if tr.Trace != root.Trace.String() {
		t.Fatalf("trace id %q, want %q", tr.Trace, root.Trace)
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
	if gotChild.Parent != root.ID.String() {
		t.Fatalf("child parent %q, want %q", gotChild.Parent, root.ID)
	}
}

func TestServeHTTPFiltersByTrace(t *testing.T) {
	r := NewRecorder(Config{})
	a := r.Start(NewID(), 0, "a")
	a.Annotate("journal", 2*time.Millisecond)
	a.Finish(3 * time.Millisecond)
	b := r.Start(NewID(), 0, "b")
	b.Finish(time.Millisecond)

	req := httptest.NewRequest("GET", "/debug/traces?trace="+a.Trace.String(), nil)
	w := httptest.NewRecorder()
	r.ServeHTTP(w, req)

	var resp tracesResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, w.Body.String())
	}
	if len(resp.Traces) != 1 || resp.Traces[0].Trace != a.Trace.String() {
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
