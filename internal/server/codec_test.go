package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"github.com/qoslab/amf/internal/ingest"
)

// ---------------------------------------------------------------------------
// Decoder against encoding/json. The oracle everywhere is json.Unmarshal
// into the request struct of api.go: same accept/reject, same values.

func sameNames(t *testing.T, body []byte, field string, got [][]byte, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%q: %s has %d names, encoding/json decodes %d (%q)", body, field, len(got), len(want), want)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("%q: %s[%d] = %q, encoding/json decodes %q", body, field, i, got[i], want[i])
		}
	}
}

func diffBatch(t *testing.T, body []byte) {
	t.Helper()
	var d Decoder
	var want BatchPredictRequest
	got, err := d.Batch(body, math.MaxInt)
	wantErr := json.Unmarshal(body, &want)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: codec error %v, encoding/json error %v", body, err, wantErr)
	}
	if err != nil {
		return
	}
	if string(got.User) != want.User {
		t.Fatalf("%q: user %q, encoding/json decodes %q", body, got.User, want.User)
	}
	sameNames(t, body, "services", got.Services, want.Services)
}

func diffRank(t *testing.T, body []byte) {
	t.Helper()
	var d Decoder
	var want RankRequest
	got, err := d.Rank(body, math.MaxInt)
	wantErr := json.Unmarshal(body, &want)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: codec error %v, encoding/json error %v", body, err, wantErr)
	}
	if err != nil {
		return
	}
	if string(got.User) != want.User || got.TopK != want.TopK || string(got.Metric) != want.Metric {
		t.Fatalf("%q: (user %q, topk %d, metric %q), encoding/json decodes (%q, %d, %q)",
			body, got.User, got.TopK, got.Metric, want.User, want.TopK, want.Metric)
	}
	sameNames(t, body, "services", got.Services, want.Services)
}

func diffObserve(t *testing.T, body []byte) {
	t.Helper()
	var d Decoder
	var want ObserveRequest
	got, err := d.Observe(body, math.MaxInt)
	wantErr := json.Unmarshal(body, &want)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: codec error %v, encoding/json error %v", body, err, wantErr)
	}
	if err != nil {
		return
	}
	if len(got) != len(want.Observations) {
		t.Fatalf("%q: %d observations, encoding/json decodes %d", body, len(got), len(want.Observations))
	}
	for i, w := range want.Observations {
		g := got[i]
		if string(g.User) != w.User || string(g.Service) != w.Service ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) || g.TimestampMs != w.TimestampMs {
			t.Fatalf("%q: observation %d = (%q, %q, %v, %d), encoding/json decodes %+v",
				body, i, g.User, g.Service, g.Value, g.TimestampMs, w)
		}
	}
	// Round trip: the body the gateway would send a shard for these
	// observations decodes to them again, bit for bit.
	enc, err := AppendObserveRequest(nil, got)
	if err != nil {
		t.Fatalf("%q: re-encode: %v", body, err)
	}
	var d2 Decoder
	again, err := d2.Observe(enc, math.MaxInt)
	if err != nil || len(again) != len(got) {
		t.Fatalf("%q: re-encoded as %q, which decodes to %d observations (%v), want %d", body, enc, len(again), err, len(got))
	}
	for i := range got {
		g, a := got[i], again[i]
		if !bytes.Equal(g.User, a.User) || !bytes.Equal(g.Service, a.Service) ||
			math.Float64bits(g.Value) != math.Float64bits(a.Value) || g.TimestampMs != a.TimestampMs {
			t.Fatalf("%q: re-encoded as %q, observation %d decodes to (%q, %q, %v, %d), want (%q, %q, %v, %d)",
				body, enc, i, a.User, a.Service, a.Value, a.TimestampMs, g.User, g.Service, g.Value, g.TimestampMs)
		}
	}
}

// querySeeds are request bodies for the batch and rank decoders: the
// benchmark's shapes, then one body per rule of the wire contract.
var querySeeds = []string{
	`{"user":"u0001","services":["s00001","s00002","s00003"]}`,
	`{"user":"u0001","services":["s00001","s00002"],"topk":10}`,
	`{"user":"u0001","topk":10}`,
	`{"user":"u1","topk":3,"metric":"tp"}`,
	" \t\r\n{ \"user\" : \"u\" , \"services\" : [ \"a\" , \"b\" ] } \n",
	// Last duplicate wins; nested keys are not top-level keys.
	`{"user":"a","services":["x","y"]}`,
	`{"services":["x"],"user":"late"}`,
	`{"user":"a","user":"b"}`,
	`{"user":"a","nested":{"user":"inner"},"user":"c","tail":[1,2]}`,
	`{"user":"a","user":null}`,
	`{"topk":3,"topk":null,"metric":"tp","metric":null}`,
	// A repeated list decodes over what the earlier one left.
	`{"services":["a","b"],"services":["c"]}`,
	`{"services":["a","b"],"services":[null]}`,
	`{"services":["a","b","c"],"services":["x"],"services":[null,null,null,null]}`,
	`{"services":["a","b"],"services":[],"services":[null,null]}`,
	`{"services":["a","b"],"services":null,"services":[null]}`,
	`{"services":[null,"a",null]}`,
	// Wrong types and wrong documents.
	`{"user":5}`,
	`{"user":"a","user":5}`,
	`{"services":["x"]}`,
	`["user","a"]`,
	`{"user":{"name":"u"}}`,
	`{"services":"a"}`,
	`{"services":[1]}`,
	`{"services":{"0":"a"}}`,
	`null`,
	` null `,
	`"user"`,
	`5`,
	`true`,
	``,
	`   `,
	`{`,
	`{}`,
	`{"user"}`,
	`{"user":}`,
	`{"user":"u",}`,
	`{,}`,
	`{"user":"u" "topk":1}`,
	`{"services":["a",]}`,
	`{"services":[,"a"]}`,
	`{"services":["a" "b"]}`,
	`{"user":"u"`,
	`{"user":"u`,
	// Trailing data.
	`{"user":"u1","topk":3} trailing-junk`,
	`{"user":"u1","topk":3}{"user":"u2","topk":3}`,
	`{"user":"u1","topk":3}}`,
	`{"user":"u1","topk":3},`,
	`{"user":"u1","topk":3} null`,
	// Numbers.
	`{"topk":5.0}`,
	`{"topk":1e2}`,
	`{"topk":-0}`,
	`{"topk":-7}`,
	`{"topk":05}`,
	`{"topk":+5}`,
	`{"topk":5.}`,
	`{"topk":.5}`,
	`{"topk":1e}`,
	`{"topk":-}`,
	`{"topk":9223372036854775807}`,
	`{"topk":9223372036854775808}`,
	`{"topk":-9223372036854775808}`,
	`{"topk":-9223372036854775809}`,
	`{"topk":"5"}`,
	`{"topk":true}`,
	`{"topk":[5]}`,
	`{"other":1e999,"x":-0.0e-0,"y":[1,2.5,-3E+7]}`,
	`{"other":01}`,
	`{"other":1.e5}`,
	`{"other":nul}`,
	`{"other":nulll}`,
	`{"other":tru}`,
	`{"other":falsey}`,
	`{"other":NaN}`,
	// Key matching: exact, case-folded, escaped, and near misses.
	`{"USER":"u","Services":["a"],"TopK":2,"METRIC":"tp"}`,
	`{"user":"a","USER":"b"}`,
	`{"USER":"b","user":"a"}`,
	"{\"top\u212a\":4}",     // Kelvin sign folds to k
	"{\"u\u017fer\":\"x\"}", // long s folds to s
	"{\"\u017fervice\u017f\":[\"a\"]}",
	`{"us\u0065r":"u"}`,
	`{"\u0075ser":"u","\u0055SER":"v"}`,
	`{"user ":"u"}`,
	`{" user":"u"}`,
	`{"users":"u"}`,
	`{"use":"u"}`,
	`{"":"u"}`,
	`{"usér":"u"}`,
	// Strings: escapes, surrogates, invalid UTF-8, control bytes.
	`{"user":"a\"b\\c\/d\b\f\n\r\t"}`,
	`{"user":"\u00e9\u4e16\u754c"}`,
	`{"user":"\ud83d\ude00"}`,
	`{"user":"\ud83d"}`,
	`{"user":"\ude00"}`,
	`{"user":"\ud83d\u0041"}`,
	`{"user":"\ud83dx"}`,
	`{"user":"\ud83d\ud83d\ude00"}`,
	`{"user":"\ude00\ud83d"}`,
	`{"user":"\ud83d\n"}`,
	`{"user":"\ud83d\ud8"}`,
	`{"user":"\u12"}`,
	`{"user":"\u12g4"}`,
	`{"user":"\U0041"}`,
	`{"user":"\x41"}`,
	`{"user":"\'"}`,
	`{"user":"\`,
	`{"user":"é世界"}`,
	"{\"user\":\"a\xffb\"}",
	"{\"user\":\"\xc3\"}",
	"{\"user\":\"\xe4\xb8\"}",
	"{\"user\":\"\xed\xa0\x80\"}", // a surrogate spelled in UTF-8
	"{\"user\":\"\xf4\x90\x80\x80\"}",
	"{\"user\":\"a\xff\\n\"}",
	"{\"us\xffer\":\"u\"}",
	"{\"user\":\"a\x00b\"}",
	"{\"user\":\"a\x1fb\"}",
	"{\"user\":\"a\nb\"}",
	"{\"user\":\"a\tb\"}",
	"{\"user\":\"a\x7fb\"}",
	"\ufeff{\"user\":\"u\"}",
	"{\"user\":\"u\"}\x00",
	"{\"user\":\"u\"\x0c}",
	// Skipped values are still validated.
	`{"x":{"a":[1,{"b":null}],"c":"d"},"user":"u"}`,
	`{"x":[1,,2],"user":"u"}`,
	`{"x":{"a":1,},"user":"u"}`,
	`{"x":[},"user":"u"}`,
	`{"x":"\q","user":"u"}`,
	`{"x":[[[[[[[[[[[[]]]]]]]]]]]],"user":"u"}`,
}

var observeSeeds = []string{
	`{"observations":[{"user":"u0001","service":"s00001","value":1.4375},{"user":"u0001","service":"s00002","value":0.25,"timestampMs":1700000000000}]}`,
	`{"observations":[]}`,
	`{"observations":null}`,
	`{"observations":[null]}`,
	`{"observations":[{}]}`,
	`{"observations":[{"user":"u","service":"s","value":1},null,{"value":2}]}`,
	`{"Observations":[{"USER":"u","Service":"s","VALUE":1,"timestampms":5}]}`,
	"{\"ob\u017fervation\u017f\":[{\"time\u017ftampM\u017f\":7}]}",
	`{"observations":[{"user":"a","user":"b","value":1,"value":null,"timestampMs":4,"timestampMs":null}]}`,
	// A repeated list merges into what the earlier one left.
	`{"observations":[{"user":"a","value":1}],"observations":[{"service":"s"}]}`,
	`{"observations":[{"user":"a"},{"user":"b"}],"observations":[{}],"observations":[{},{},{}]}`,
	`{"observations":[{"user":"a"}],"observations":[],"observations":[{}]}`,
	`{"observations":[{"user":"a"}],"observations":null,"observations":[null]}`,
	`{"observations":[{"user":"a","value":3}],"observations":[null]}`,
	// Wrong types.
	`{"observations":{}}`,
	`{"observations":"x"}`,
	`{"observations":[[]]}`,
	`{"observations":[1]}`,
	`{"observations":["x"]}`,
	`{"observations":[{"user":1}]}`,
	`{"observations":[{"value":"1"}]}`,
	`{"observations":[{"value":true}]}`,
	`{"observations":[{"timestampMs":1.0}]}`,
	`{"observations":[{"timestampMs":1e3}]}`,
	`{"observations":[{"timestampMs":"5"}]}`,
	// Numbers.
	`{"observations":[{"value":1e999}]}`,
	`{"observations":[{"value":-1e999}]}`,
	`{"observations":[{"value":1e-999}]}`,
	`{"observations":[{"value":-0}]}`,
	`{"observations":[{"value":-0.0}]}`,
	`{"observations":[{"value":0.1e1}]}`,
	`{"observations":[{"value":1E+2}]}`,
	`{"observations":[{"value":123456789012345678901234567890123456789012345678901234567890}]}`,
	`{"observations":[{"value":0.000000000000000000000000000000000000000000000000001}]}`,
	`{"observations":[{"value":4.9e-324}]}`,
	`{"observations":[{"value":1.7976931348623157e308}]}`,
	`{"observations":[{"value":1.7976931348623159e308}]}`,
	`{"observations":[{"value":2.2250738585072011e-308}]}`,
	`{"observations":[{"value":-5}]}`,
	// Numbers the converter must hand to strconv or settle exactly: 19 and
	// 20 significant digits, ties and near-ties, the table's edges.
	`{"observations":[{"value":1234567890123456789},{"value":12345678901234567890},{"value":0.12345678901234567891}]}`,
	`{"observations":[{"value":1.00000000000000011102230246251565404236316680908203125}]}`,
	`{"observations":[{"value":1.00000000000000011102230246251565404236316680908203124}]}`,
	`{"observations":[{"value":9007199254740993},{"value":9007199254740993.0},{"value":18014398509481985}]}`,
	`{"observations":[{"value":-0.0e5},{"value":0e999999999},{"value":-0.0e-999999999}]}`,
	`{"observations":[{"value":2.2250738585072012e-308},{"value":2.4703282292062328e-324}]}`,
	`{"observations":[{"value":1e-348},{"value":1e-349},{"value":1e347},{"value":1e348},{"value":9.999999999999999999e-349}]}`,
	`{"observations":[{"value":1e22},{"value":1e23},{"value":123456789e-22},{"value":123456789e-23}]}`,
	`{"observations":[{"user":"u0042","service":"s00017","value":0.0012345678901234567},{"user":"u0042","service":"s00018","value":19.999999999999996}]}`,
	`{"observations":[{"value":1.0000000 }]}`,
	`{"observations":[{"value":1.00000000}]}`,
	`{"observations":[{"value":1.0000000x}]}`,
	`{"observations":[{"value":1.5e}]}`,
	`{"observations":[{"value":1.5e+}]}`,
	`{"observations":[{"value":-}]}`,
	`{"observations":[{"value":+1}]}`,
	`{"observations":[{"value":01}]}`,
	`{"observations":[{"value":1.}]}`,
	`{"observations":[{"value":Infinity}]}`,
	`{"observations":[{"timestampMs":9223372036854775807}]}`,
	`{"observations":[{"timestampMs":9223372036854775808}]}`,
	`{"observations":[{"timestampMs":-1}]}`,
	// Syntax and trailing data.
	`{"observations":[{"user":"u","service":"s","value":1}]} x`,
	`{"observations":[{"user":"u","service":"s","value":1}]}{"observations":[]}`,
	`{"observations":[{"user":"u","service":"s","value":1},]}`,
	`{"observations":[{"user":"u","service":"s","value":1,}]}`,
	`{"observations":[{"user":"u" "service":"s"}]}`,
	`{"observations":[{"user":"u","service":"s","value":1}`,
	`{"observations":[{"user":"\ud83d\ude00","service":"a\\b","value":1}]}`,
	"{\"observations\":[{\"user\":\"a\xffb\",\"service\":\"\xff\",\"value\":1}]}",
	`null`,
	`[]`,
	``,
}

func FuzzDecodeBatch(f *testing.F) {
	for _, s := range querySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(diffBatch)
}

func FuzzDecodeRank(f *testing.F) {
	for _, s := range querySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(diffRank)
}

func FuzzDecodeObserve(f *testing.F) {
	for _, s := range observeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(diffObserve)
}

// TestDecodeMaxDepth: skipped values nest as deep as encoding/json lets
// them and no deeper.
func TestDecodeMaxDepth(t *testing.T) {
	for _, depth := range []int{maxDepth - 1, maxDepth} {
		body := []byte(`{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"user":"u"}`)
		diffRank(t, body)
		diffObserve(t, body)
	}
}

// TestDecodeRouting holds the cases the gateway's routing scan was
// pinned to when it was a scanner of its own: the LAST duplicate "user"
// wins, because that is the user the backend serves; a nested "user" is
// not the request's; a non-string "user" is an error, not a missing one.
func TestDecodeRouting(t *testing.T) {
	cases := []struct {
		raw  string
		want string
		ok   bool
	}{
		{`{"user":"a","services":["x","y"]}`, "a", true},
		{`{"services":["x"],"user":"late"}`, "late", true},
		{`{"user":"a","user":"b"}`, "b", true},
		{`{"user":"a","nested":{"user":"inner"},"user":"c","tail":[1,2]}`, "c", true},
		{`{"user":5}`, "", false},
		{`{"user":"a","user":5}`, "", false},
		{`{"services":["x"]}`, "", true},
		{`["user","a"]`, "", false},
	}
	var d Decoder
	for _, tc := range cases {
		for name, decode := range map[string]func([]byte, int) (Query, error){"batch": d.Batch, "rank": d.Rank} {
			q, err := decode([]byte(tc.raw), math.MaxInt)
			if (err == nil) != tc.ok || (tc.ok && string(q.User) != tc.want) {
				t.Errorf("%s(%s) = (%q, %v), want (%q, ok=%v)", name, tc.raw, q.User, err, tc.want, tc.ok)
			}
		}
	}
}

// TestDecodeLimit: the decoder stops at element max+1 with a LimitError;
// max elements pass.
func TestDecodeLimit(t *testing.T) {
	var d Decoder
	var limit *LimitError
	if q, err := d.Rank([]byte(`{"services":["a","b"]}`), 2); err != nil || len(q.Services) != 2 {
		t.Fatalf("2 services under limit 2: %v", err)
	}
	// The third element is never looked at: it is not even a string.
	if _, err := d.Rank([]byte(`{"services":["a","b",3]}`), 2); !errors.As(err, &limit) || limit.Limit != 2 {
		t.Fatalf("3 services under limit 2: %v, want LimitError", err)
	}
	if _, err := d.Batch([]byte(`{"services":["a","b","c"]}`), 2); !errors.As(err, &limit) {
		t.Fatalf("batch: %v, want LimitError", err)
	}
	if _, err := d.Observe([]byte(`{"observations":[{},{},{}]}`), 2); !errors.As(err, &limit) {
		t.Fatalf("observe: %v, want LimitError", err)
	}
}

// ---------------------------------------------------------------------------
// Encoders against encoding/json.

func jsonLine(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func views(names []string) [][]byte {
	if names == nil {
		return nil
	}
	out := make([][]byte, len(names))
	for i, n := range names {
		out[i] = []byte(n)
	}
	return out
}

// TestEncodersMatchEncodingJSON is the golden table: each encoder's
// bytes are json.NewEncoder(w).Encode(resp)'s, for every shape the
// handlers produce.
func TestEncodersMatchEncodingJSON(t *testing.T) {
	hostile := "a\"b\\c<d>&e\u2028f\u2029g\x00\x1f\x7f\b\f\n\r\t\xff\xc3é世"
	check := func(name string, got []byte, err error, want any) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if w := jsonLine(t, want); !bytes.Equal(got, w) {
			t.Errorf("%s:\n got %s\nwant %s", name, got, w)
		}
	}

	for _, r := range []ObserveResponse{{}, {Accepted: 16, NewUsers: 1, NewServices: 12}, {Accepted: -1}} {
		check("observe", appendObserveResponse(nil, r), nil, r)
	}

	for _, r := range []ObserveRequest{
		{Observations: []Observation{}},
		{Observations: []Observation{
			{User: "u0001", Service: "s00001", Value: 1.4375},
			{User: hostile, Service: hostile, Value: 1e-7, TimestampMs: 1700000000000},
			{User: "u", Service: "s", Value: math.Copysign(0, -1), TimestampMs: -1},
			{User: "", Service: "", Value: -1e21},
		}},
	} {
		in := make([]ingest.Observation, len(r.Observations))
		for i, o := range r.Observations {
			in[i] = ingest.Observation{User: []byte(o.User), Service: []byte(o.Service), Value: o.Value, TimestampMs: o.TimestampMs}
		}
		got, err := AppendObserveRequest(nil, in)
		check("observe request", got, err, r)
	}

	for _, r := range []PredictResponse{
		{User: "u0001", Service: "s00001", Value: 1.4375, Confidence: 0.875},
		{User: hostile, Service: hostile, Value: 0, Confidence: 0},
		{User: "", Service: "", Value: 1e-7, Confidence: 1e21},
		{User: "u", Service: "s", Value: math.Copysign(0, -1), Confidence: 0.1 + 0.2},
	} {
		got, err := appendPredictResponse(nil, r.User, r.Service, r.Value, r.Confidence)
		check("predict", got, err, r)
	}

	for _, r := range []BatchPredictResponse{
		{User: "u1", Predictions: []BatchPrediction{}},
		{User: hostile, Predictions: []BatchPrediction{
			{Service: "s1", Value: 1.5, Confidence: 0.5, OK: true},
			{Service: "unknown"}, // ok:false row, value and confidence omitted
			{Service: "zero", Value: 0, Confidence: 1, OK: true}, // value omitted at 0
			{Service: "noconf", Value: 2, Confidence: 0, OK: true},
			{Service: hostile, Value: 3.0000000000000004, Confidence: 1e-9, OK: true},
			{Service: "negzero", Value: math.Copysign(0, -1), OK: true},
		}},
	} {
		rows := make([]batchRow, len(r.Predictions))
		for i, p := range r.Predictions {
			rows[i] = batchRow{Service: []byte(p.Service), Value: p.Value, Confidence: p.Confidence, OK: p.OK}
		}
		got, err := appendBatchResponse(nil, []byte(r.User), rows)
		check("batch", got, err, r)
	}

	for _, r := range []RankResponse{
		{User: "u1", Metric: "rt", Ranked: []RankedService{}, Candidates: 0, ViewVersion: 1},
		{User: "u1", Metric: "rt", Ranked: []RankedService{}, Unknown: []string{}, Candidates: 0, ViewVersion: 1},
		{User: "u1", Metric: "tp", Ranked: []RankedService{{Service: "s1", Value: 0.25}, {Service: "#departed", Value: 0}},
			Unknown: []string{"ghost", hostile}, Candidates: 2, ViewVersion: math.MaxUint64},
		{User: hostile, Metric: "rt", Ranked: []RankedService{{Service: hostile, Value: 123456789.125}}, Candidates: 20000, ViewVersion: 7},
	} {
		got, err := appendRankResponse(nil, []byte(r.User), r.Metric, r.Ranked, views(r.Unknown), r.Candidates, r.ViewVersion)
		check("rank", got, err, r)
	}
}

// TestEncodersRefuseNaN: a NaN or an infinity fails the whole response,
// as Encode fails it, whichever field holds it.
func TestEncodersRefuseNaN(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := json.NewEncoder(io.Discard).Encode(bad); err == nil {
			t.Fatalf("encoding/json encodes %v", bad)
		}
		if _, err := appendPredictResponse(nil, "u", "s", bad, 1); err == nil {
			t.Errorf("predict value %v encoded", bad)
		}
		if _, err := appendPredictResponse(nil, "u", "s", 1, bad); err == nil {
			t.Errorf("predict confidence %v encoded", bad)
		}
		if _, err := appendBatchResponse(nil, nil, []batchRow{{Value: 1}, {Value: bad}}); err == nil {
			t.Errorf("batch value %v encoded", bad)
		}
		if _, err := appendBatchResponse(nil, nil, []batchRow{{Confidence: bad}}); err == nil {
			t.Errorf("batch confidence %v encoded", bad)
		}
		if _, err := appendRankResponse(nil, nil, "rt", []RankedService{{Value: bad}}, nil, 1, 1); err == nil {
			t.Errorf("rank value %v encoded", bad)
		}
		if _, err := AppendObserveRequest(nil, []ingest.Observation{{Value: 1}, {Value: bad}}); err == nil {
			t.Errorf("observe request value %v encoded", bad)
		}
	}
}

func FuzzAppendString(f *testing.F) {
	for _, s := range []string{"", "s00001", "a\"b\\c", "<script>&amp;</script>", "\u2028\u2029", "\x00\x01\x1f\x7f",
		"\b\f\n\r\t", "\xff", "a\xc3", "\xed\xa0\x80", "é世界😀", "\xf0\x9f\x98", "#departed"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("appendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
		if got := appendString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Fatalf("appendString([]byte(%q)) = %s, encoding/json writes %s", s, got, want)
		}
	})
}

func FuzzAppendFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.4375, 1e-6, 9.999999e-7, 1e-7, 1e20, 1e21, 1.5e-9, 1e-10, 1e100, 1e-100,
		math.SmallestNonzeroFloat64, math.MaxFloat64, 2.2250738585072014e-308, 123456789.125, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		got, ok := appendFloat([]byte("x"), v)
		want, err := json.Marshal(v)
		if ok != (err == nil) {
			t.Fatalf("appendFloat(%v) ok=%v, encoding/json error %v", v, ok, err)
		}
		if !ok {
			if string(got) != "x" {
				t.Fatalf("appendFloat(%v) refused but appended %q", v, got)
			}
			return
		}
		if string(got[1:]) != string(want) {
			t.Fatalf("appendFloat(%v) = %s, encoding/json writes %s", v, got[1:], want)
		}
	})
}

// ---------------------------------------------------------------------------
// Reading: the body bound and the query string.

func TestReadBodyLimit(t *testing.T) {
	read := func(body io.Reader, declared int64, limit int64) ([]byte, error) {
		r := httptest.NewRequest(http.MethodPost, "/", body)
		r.ContentLength = declared
		return ReadBody(httptest.NewRecorder(), r, limit, nil)
	}
	if b, err := read(strings.NewReader("0123456789abcdef"), 16, 16); err != nil || string(b) != "0123456789abcdef" {
		t.Fatalf("body at the limit: %q, %v", b, err)
	}
	if b, err := read(strings.NewReader("0123456789abcdef"), -1, 16); err != nil || len(b) != 16 {
		t.Fatalf("undeclared body at the limit: %q, %v", b, err)
	}
	for name, declared := range map[string]int64{"declared": 17, "undeclared": -1} {
		_, err := read(strings.NewReader("0123456789abcdefg"), declared, 16)
		if err == nil || BodyErrorStatus(err) != http.StatusRequestEntityTooLarge {
			t.Errorf("%s body over the limit: %v, want a 413 error", name, err)
		}
	}
	if _, err := read(io.MultiReader(strings.NewReader("abc"), errReader{}), -1, 16); err == nil || BodyErrorStatus(err) != http.StatusBadRequest {
		t.Errorf("failing body: %v, want a 400 error", err)
	}
	// A reused buffer is reused.
	buf := make([]byte, 0, 64)
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader("hello"))
	if b, err := ReadBody(httptest.NewRecorder(), r, 16, buf); err != nil || string(b) != "hello" || &b[0] != &buf[:1][0] {
		t.Errorf("reused buffer: %q, %v", b, err)
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }

// TestHotBodyBounds: a server reached directly answers 413 for a body
// past MaxBodyBytes without reading it, and 413 for a list past
// MaxBatch without materialising it (the element after the bound is
// garbage the decoder never reaches).
func TestHotBodyBounds(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	s.MaxBatch = 2
	for _, path := range []string{"/api/v1/observe", "/api/v1/predict", "/api/v1/rank"} {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(`{}`))
		req.ContentLength = MaxBodyBytes + 1
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with an oversized body: status %d, want 413", path, w.Code)
		}
	}
	for path, body := range map[string]string{
		"/api/v1/observe": `{"observations":[{"user":"u0","service":"s0","value":1},{"user":"u0","service":"s1","value":1},!!!`,
		"/api/v1/predict": `{"user":"u0","services":["s0","s1",!!!`,
		"/api/v1/rank":    `{"user":"u0","services":["s0","s1",!!!`,
	} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), "exceeds limit 2") {
			t.Errorf("%s past MaxBatch: status %d %s, want 413", path, w.Code, w.Body.String())
		}
	}
}

func TestQueryParamMatchesParseQuery(t *testing.T) {
	for _, q := range []string{
		"user=u0001&service=s00001",
		"service=s&user=u",
		"user=a&user=b",
		"user=&service=s",
		"user&service=s",
		"",
		"&&user=u&&",
		"user=a%20b&service=x+y",
		"us%65r=u&s%65rvice=s",
		"user=%zz&user=ok&service=%",
		"%zz=1&user=u",
		"user=a;b&service=s",
		"a=1;user=evil&user=good",
		"user=a=b&service==",
		"USER=u&Service=s",
		"xuser=1&userx=2&user=3",
		"user=%C3%A9&service=%ff",
	} {
		want, _ := url.ParseQuery(q)
		for _, name := range []string{"user", "service"} {
			if got := QueryParam(q, name); got != want.Get(name) {
				t.Errorf("QueryParam(%q, %q) = %q, url.ParseQuery gives %q", q, name, got, want.Get(name))
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Allocation shape: what a request allocates must not follow the length
// of the list it carries.

func candidateBody(user string, n int, tail string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"user":%q,"services":[`, user)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `"as%d"`, i)
	}
	b.WriteString("]" + tail + "}")
	return b.Bytes()
}

func observeBody(n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"observations":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"user":"au","service":"as%d","value":%g}`, i, 0.5+float64(i%7))
	}
	b.WriteString("]}")
	return b.Bytes()
}

// discard is a ResponseWriter that keeps nothing, so that what a run
// allocates is the handler's doing.
type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(code int)        { d.code = code }
func (d *discard) Write(b []byte) (int, error) { return len(b), nil }

func TestDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	var d Decoder
	for name, run := range map[string]func(body []byte) error{
		"batch":   func(b []byte) error { _, err := d.Batch(b, math.MaxInt); return err },
		"rank":    func(b []byte) error { _, err := d.Rank(b, math.MaxInt); return err },
		"observe": func(b []byte) error { _, err := d.Observe(b, math.MaxInt); return err },
	} {
		for _, n := range []int{16, 64, 200, 2000} {
			body := candidateBody("au", n, `,"topk":10`)
			if name == "observe" {
				body = observeBody(n)
			}
			if err := run(body); err != nil { // grows the scratch
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(20, func() { run(body) }); allocs != 0 {
				t.Errorf("decoding a %s body of %d allocates %v times, want 0", name, n, allocs)
			}
		}
	}
}

// BenchmarkDecodeObserve prices the decode of one observe body of the
// served shape — 64 samples for one user against distinct services,
// names as bench/ spells them, values in shortest round-trip form
// between 0.001 and 20 — which decodes without allocating:
//
//	go test -run=NONE -bench=BenchmarkDecodeObserve -benchmem -cpu=1 ./internal/server/
func BenchmarkDecodeObserve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	body := []byte(`{"observations":[`)
	for i := 0; i < 64; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = fmt.Appendf(body, `{"user":"u%04d","service":"s%05d","value":`, 42, rng.Intn(20000))
		body = strconv.AppendFloat(body, 0.001+19.999*rng.Float64(), 'g', -1, 64)
		body = append(body, '}')
	}
	body = append(body, "]}"...)
	var d Decoder
	decode := func() {
		if obs, err := d.Observe(body, math.MaxInt); err != nil || len(obs) != 64 {
			b.Fatalf("decoded %d observations: %v", len(obs), err)
		}
	}
	decode() // grows the scratch
	if allocs := testing.AllocsPerRun(10, decode); allocs != 0 && !raceEnabled {
		b.Fatalf("decoding allocates %v times, want 0", allocs)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
}

// TestHandlerAllocationsFlat: a rank or batch request with every name
// known costs the same number of allocations for 200 candidates as for
// 2000.
func TestHandlerAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	s := testServer(t)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/observe", bytes.NewReader(observeBody(2000))))
	if w.Code != http.StatusOK {
		t.Fatalf("preload: status %d %s", w.Code, w.Body.String())
	}
	for _, route := range []struct{ name, path, tail string }{
		{"batch", "/api/v1/predict", ""},
		{"rank", "/api/v1/rank", `,"topk":10`},
	} {
		var counts []float64
		for _, n := range []int{200, 2000} {
			body := candidateBody("au", n, route.tail)
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, route.path, rd)
			out := &discard{h: make(http.Header)}
			serve := func() {
				rd.Reset(body)
				clear(out.h)
				s.Handler().ServeHTTP(out, req)
			}
			if serve(); out.code != http.StatusOK {
				t.Fatalf("%s of %d: status %d", route.name, n, out.code)
			}
			counts = append(counts, testing.AllocsPerRun(20, serve))
		}
		if counts[0] != counts[1] {
			t.Errorf("%s allocates %v times for 200 candidates and %v for 2000", route.name, counts[0], counts[1])
		}
		t.Logf("%s: %v allocations per request", route.name, counts[0])
	}
}

// TestHotRoutesConcurrent drives the four hot routes from several
// goroutines at once, each with names of its own, and checks that every
// response speaks of the request it answers: pooled scratch shared
// between two requests in flight would show here (and under -race).
func TestHotRoutesConcurrent(t *testing.T) {
	s := testServer(t)
	const workers, rounds, services = 8, 40, 30
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			errs <- func() error {
				user := fmt.Sprintf("cu%d", g)
				names := make([]string, services)
				obs := make([]Observation, services)
				for i := range names {
					names[i] = fmt.Sprintf("cs%d-%d", g, i)
					obs[i] = Observation{User: user, Service: names[i], Value: 1 + float64((g+i)%5)}
				}
				call := func(method, path string, body, out any) error {
					var rd io.Reader
					if body != nil {
						raw, err := json.Marshal(body)
						if err != nil {
							return err
						}
						rd = bytes.NewReader(raw)
					}
					w := httptest.NewRecorder()
					s.Handler().ServeHTTP(w, httptest.NewRequest(method, path, rd))
					if w.Code != http.StatusOK {
						return fmt.Errorf("%s %s: status %d %s", method, path, w.Code, w.Body.String())
					}
					return json.Unmarshal(w.Body.Bytes(), out)
				}
				for r := 0; r < rounds; r++ {
					var or ObserveResponse
					if err := call(http.MethodPost, "/api/v1/observe", ObserveRequest{Observations: obs}, &or); err != nil {
						return err
					} else if or.Accepted != services {
						return fmt.Errorf("%s: accepted %d of %d", user, or.Accepted, services)
					}
					var br BatchPredictResponse
					if err := call(http.MethodPost, "/api/v1/predict", BatchPredictRequest{User: user, Services: names}, &br); err != nil {
						return err
					} else if br.User != user || len(br.Predictions) != services {
						return fmt.Errorf("%s: batch answered for %q with %d rows", user, br.User, len(br.Predictions))
					}
					for i, p := range br.Predictions {
						if p.Service != names[i] || !p.OK {
							return fmt.Errorf("%s: batch row %d is %+v, want %s", user, i, p, names[i])
						}
					}
					var rr RankResponse
					if err := call(http.MethodPost, "/api/v1/rank", RankRequest{User: user, Services: append([]string{"ghost-" + user}, names...), TopK: 5}, &rr); err != nil {
						return err
					} else if rr.User != user || len(rr.Ranked) != 5 || rr.Candidates != services || len(rr.Unknown) != 1 || rr.Unknown[0] != "ghost-"+user {
						return fmt.Errorf("%s: rank answered %+v", user, rr)
					}
					for _, e := range rr.Ranked {
						if !strings.HasPrefix(e.Service, fmt.Sprintf("cs%d-", g)) {
							return fmt.Errorf("%s: ranked %q is another request's candidate", user, e.Service)
						}
					}
					var pr PredictResponse
					if err := call(http.MethodGet, "/api/v1/predict?user="+user+"&service="+names[r%services], nil, &pr); err != nil {
						return err
					} else if pr.User != user || pr.Service != names[r%services] {
						return fmt.Errorf("%s: predict answered for (%q, %q)", user, pr.User, pr.Service)
					}
				}
				return nil
			}()
		}(g)
	}
	for g := 0; g < workers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestHotResponsesAreEncodingJSONs: what each hot handler writes is what
// json.NewEncoder(w).Encode would write for the response it decodes to,
// and is announced by its exact Content-Length.
func TestHotResponsesAreEncodingJSONs(t *testing.T) {
	s := testServer(t)
	observeSome(t, s)
	do := func(method, path, body string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d %s", method, path, w.Code, w.Body.String())
		}
		if got := w.Header().Get("Content-Length"); got != fmt.Sprint(w.Body.Len()) {
			t.Errorf("%s %s: Content-Length %q for a body of %d", method, path, got, w.Body.Len())
		}
		return w
	}
	same := func(name string, w *httptest.ResponseRecorder, v any) {
		if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := jsonLine(t, v); !bytes.Equal(w.Body.Bytes(), want) {
			t.Errorf("%s:\n got %s\nwant %s", name, w.Body.Bytes(), want)
		}
	}
	same("observe", do(http.MethodPost, "/api/v1/observe", `{"observations":[{"user":"u<9>","service":"s&9","value":0.1}]}`), new(ObserveResponse))
	same("predict", do(http.MethodGet, "/api/v1/predict?user=u%3C9%3E&service=s%269", ""), new(PredictResponse))
	same("batch", do(http.MethodPost, "/api/v1/predict", `{"user":"u1","services":["s1","nope","s&9","s2"]}`), new(BatchPredictResponse))
	same("rank", do(http.MethodPost, "/api/v1/rank", `{"user":"u1","services":["s1","nope","s\u00269","s2"],"topk":2}`), new(RankResponse))
	same("rank all", do(http.MethodPost, "/api/v1/rank", `{"user":"u1","topk":3,"metric":"tp"}`), new(RankResponse))
}
