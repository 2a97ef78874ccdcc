package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// This file is the decode half of the wire codec for the four hot
// bodies (observe, batch predict, rank; GET predict has no body): a
// strict single-pass scanner over a body read once, used by the server
// handlers and by the gateway's routing step alike. Names come back as
// views into the body — copied into scratch only when a string holds an
// escape or invalid UTF-8 — so a decode allocates nothing once its
// scratch has grown, however many candidates or samples the body lists.
//
// The contract is encoding/json's, so that the codec can replace it
// without a client noticing: a body is accepted exactly when
// json.Unmarshal into the request struct accepts it, and decodes to the
// same values. That fixes the details below — keys match exactly or
// under Unicode simple case folding, the last duplicate key wins,
// unknown fields are skipped (but must be valid JSON), null leaves a
// scalar untouched and empties a list, numbers must fit their Go type,
// and a repeated list key decodes element-wise over what the earlier
// occurrence left (golang/go#21092). Unlike json.Decoder, anything but
// whitespace after the top-level value is an error. The differential
// fuzz targets in codec_test.go hold the codec to this.

// MaxBodyBytes bounds a hot request body on either hop; a longer one is
// answered 413 without being buffered.
const MaxBodyBytes = 64 << 20

// maxPooledBytes is the largest buffer a pool keeps: whatever one
// outsized request grew is left to the collector instead of staying
// resident.
const maxPooledBytes = 1 << 20

// maxDepth is encoding/json's nesting limit, applied to skipped values.
const maxDepth = 10000

// Query is a decoded BatchPredictRequest or RankRequest. The byte
// slices are views that stay valid until the Decoder that produced them
// decodes again or is released.
type Query struct {
	User     []byte
	Services [][]byte
	TopK     int
	Metric   []byte
}

// ObservationView is a decoded Observation; its names are views with
// the same lifetime as Query's.
type ObservationView struct {
	User        []byte
	Service     []byte
	Value       float64
	TimestampMs int64
}

// LimitError reports a list with more than Limit elements. The decoder
// stops at element Limit+1, so the list's real length is unknown.
type LimitError struct{ Limit int }

func (e *LimitError) Error() string {
	return fmt.Sprintf("list of at least %d exceeds limit %d", e.Limit+1, e.Limit)
}

// Decoder holds the scratch one body is decoded in. The zero value is
// ready; AcquireDecoder recycles grown ones.
type Decoder struct {
	in    []byte
	pos   int
	depth int
	unq   []byte            // strings that could not be views
	svcs  [][]byte          // services; len is the most this body listed under one key
	obs   []ObservationView // observations, likewise
}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// AcquireDecoder returns a pooled Decoder; pair with Release.
func AcquireDecoder() *Decoder { return decoderPool.Get().(*Decoder) }

// Release returns d to the pool. Everything d decoded is invalid
// afterwards. The views are cleared first: the body they point into
// belongs to the caller and must not be kept alive by the pool.
func (d *Decoder) Release() {
	if d.oversized() {
		return
	}
	d.in = nil
	clear(d.svcs)
	clear(d.obs)
	decoderPool.Put(d)
}

// oversized reports whether any scratch grew past maxPooledBytes (a
// view is 24 bytes, an ObservationView 64).
func (d *Decoder) oversized() bool {
	return cap(d.unq) > maxPooledBytes || cap(d.svcs) > maxPooledBytes/24 || cap(d.obs) > maxPooledBytes/64
}

// Batch decodes a POST /api/v1/predict body, failing with *LimitError
// past max services.
func (d *Decoder) Batch(body []byte, max int) (Query, error) {
	return d.query(body, max, batchFields)
}

// Rank decodes a POST /api/v1/rank body, failing with *LimitError past
// max services.
func (d *Decoder) Rank(body []byte, max int) (Query, error) {
	return d.query(body, max, rankFields)
}

// Observe decodes a POST /api/v1/observe body, failing with *LimitError
// past max observations.
func (d *Decoder) Observe(body []byte, max int) ([]ObservationView, error) {
	d.begin(body)
	n := 0
	err := d.document(func(key []byte) error {
		if observeFields.index(key) != 0 {
			return d.skip()
		}
		var err error
		n, err = d.observations(max)
		return err
	})
	return d.obs[:n], err
}

// fieldSet is the JSON names of one request struct, in field order.
type fieldSet []string

var (
	rankFields        = fieldSet{"user", "services", "topk", "metric"}
	batchFields       = rankFields[:2]
	observeFields     = fieldSet{"observations"}
	observationFields = fieldSet{"user", "service", "value", "timestampMs"}
)

// index returns which field key selects, or -1, by encoding/json's
// rule: an exact match, else a match under Unicode simple case folding
// (so the Kelvin sign matches k, and the long s matches s).
func (fs fieldSet) index(key []byte) int {
	for i, name := range fs {
		if string(key) == name {
			return i
		}
	}
	for i, name := range fs {
		if bytes.EqualFold(key, []byte(name)) {
			return i
		}
	}
	return -1
}

func (d *Decoder) begin(body []byte) {
	d.in, d.pos, d.depth = body, 0, 0
	d.unq, d.svcs, d.obs = d.unq[:0], d.svcs[:0], d.obs[:0]
}

func (d *Decoder) query(body []byte, max int, fs fieldSet) (Query, error) {
	d.begin(body)
	var q Query
	err := d.document(func(key []byte) error {
		switch fs.index(key) {
		case 0:
			return d.stringInto(&q.User, "user")
		case 1:
			n, err := d.services(max)
			q.Services = d.svcs[:n]
			return err
		case 2:
			v, err := d.intValue(int64(q.TopK), strconv.IntSize, "topk")
			q.TopK = int(v)
			return err
		case 3:
			return d.stringInto(&q.Metric, "metric")
		}
		return d.skip()
	})
	return q, err
}

// services decodes the string list at d.pos into d.svcs and returns its
// length. d.svcs keeps what an earlier "services" key of the same body
// wrote, because a null element leaves its slot as it was; an empty or
// null list forgets it, as encoding/json's fresh slice does.
func (d *Decoder) services(max int) (int, error) {
	n, err := d.list("services", func(i int) error {
		if i == max {
			return &LimitError{Limit: max}
		}
		if i == len(d.svcs) {
			d.svcs = append(d.svcs, nil)
		}
		return d.stringInto(&d.svcs[i], "services")
	})
	if n == 0 {
		clear(d.svcs)
	}
	return n, err
}

// observations decodes the object list at d.pos into d.obs, merging
// into the elements an earlier "observations" key left, and returns its
// length.
func (d *Decoder) observations(max int) (int, error) {
	n, err := d.list("observations", func(i int) error {
		if i == max {
			return &LimitError{Limit: max}
		}
		if i == len(d.obs) {
			d.obs = append(d.obs, ObservationView{})
		}
		switch d.peek() {
		case 'n':
			return d.literal("null")
		case '{':
		default:
			return d.mismatch("observations", "object")
		}
		o := &d.obs[i]
		return d.members(func(key []byte) error {
			switch observationFields.index(key) {
			case 0:
				return d.stringInto(&o.User, "user")
			case 1:
				return d.stringInto(&o.Service, "service")
			case 2:
				return d.floatInto(&o.Value, "value")
			case 3:
				var err error
				o.TimestampMs, err = d.intValue(o.TimestampMs, 64, "timestampMs")
				return err
			}
			return d.skip()
		})
	})
	if n == 0 {
		clear(d.obs)
	}
	return n, err
}

// ---------------------------------------------------------------------------
// Grammar. Every method starts at the first byte of what it reads (after
// any whitespace) and leaves d.pos on the byte after it.

func (d *Decoder) errorf(format string, args ...any) error {
	return fmt.Errorf(format+" at offset %d", append(args, d.pos)...)
}

func (d *Decoder) mismatch(field, want string) error {
	return d.errorf("field %q wants a JSON %s", field, want)
}

// unexpected names the byte at d.pos in an error.
func (d *Decoder) unexpected(context string) error {
	if d.pos >= len(d.in) {
		return errors.New("unexpected end of JSON input")
	}
	return d.errorf("invalid character %q %s", d.in[d.pos], context)
}

// peek returns the byte at d.pos, or 0 — which no JSON token starts
// with — at the end of input.
func (d *Decoder) peek() byte {
	if d.pos < len(d.in) {
		return d.in[d.pos]
	}
	return 0
}

func (d *Decoder) space() {
	for d.pos < len(d.in) {
		switch d.in[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// document decodes the body's one top-level value: an object whose
// members go to field, or null, which like encoding/json leaves the
// request zero. Only whitespace may follow it.
func (d *Decoder) document(field func(key []byte) error) error {
	d.space()
	var err error
	switch d.peek() {
	case '{':
		err = d.members(field)
	case 'n':
		err = d.literal("null")
	case 0:
		err = d.unexpected("looking for beginning of value")
	default:
		err = d.errorf("request body wants a JSON object")
	}
	if err != nil {
		return err
	}
	if d.space(); d.pos < len(d.in) {
		return d.unexpected("after top-level value")
	}
	return nil
}

func (d *Decoder) enter() error {
	if d.depth++; d.depth > maxDepth {
		return d.errorf("exceeded max depth")
	}
	return nil
}

// members walks the object at d.pos, handing each unescaped key to
// field with d.pos on its value, which field consumes.
func (d *Decoder) members(field func(key []byte) error) error {
	if err := d.enter(); err != nil {
		return err
	}
	d.pos++ // {
	if d.space(); d.peek() == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if d.space(); d.peek() != '"' {
			return d.unexpected("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.space(); d.peek() != ':' {
			return d.unexpected("after object key")
		}
		d.pos++
		d.space()
		if err := field(key); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.unexpected("after object key:value pair")
		}
	}
}

// elements walks the array at d.pos, calling elem(i) with d.pos on
// element i, and returns the element count.
func (d *Decoder) elements(elem func(i int) error) (int, error) {
	if err := d.enter(); err != nil {
		return 0, err
	}
	d.pos++ // [
	if d.space(); d.peek() == ']' {
		d.pos++
		d.depth--
		return 0, nil
	}
	for i := 0; ; i++ {
		d.space()
		if err := elem(i); err != nil {
			return i, err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			d.depth--
			return i + 1, nil
		default:
			return i, d.unexpected("after array element")
		}
	}
}

// list decodes a list-typed field: an array walked by elem, or null,
// which empties the list.
func (d *Decoder) list(field string, elem func(i int) error) (int, error) {
	switch d.peek() {
	case '[':
		return d.elements(elem)
	case 'n':
		return 0, d.literal("null")
	}
	return 0, d.mismatch(field, "array")
}

// skip validates and discards one value of any type.
func (d *Decoder) skip() error {
	switch c := d.peek(); {
	case c == '"':
		_, err := d.str()
		return err
	case c == '{':
		return d.members(func([]byte) error { return d.skip() })
	case c == '[':
		_, err := d.elements(func(int) error { return d.skip() })
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.num()
		return err
	}
	return d.unexpected("looking for beginning of value")
}

func (d *Decoder) literal(word string) error {
	end := d.pos + len(word)
	if end > len(d.in) || string(d.in[d.pos:end]) != word {
		return d.errorf("invalid literal, want %s", word)
	}
	d.pos = end
	return nil
}

// stringInto decodes a string into *dst; null leaves *dst as it was.
func (d *Decoder) stringInto(dst *[]byte, field string) error {
	switch d.peek() {
	case '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		*dst = s
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch(field, "string")
}

// intValue decodes an integer of the given width; null yields old.
func (d *Decoder) intValue(old int64, bits int, field string) (int64, error) {
	if d.peek() == 'n' {
		return old, d.literal("null")
	}
	raw, err := d.num()
	if err != nil {
		return old, d.mismatch(field, "integer")
	}
	v, err := strconv.ParseInt(string(raw), 10, bits)
	if err != nil {
		return old, d.errorf("field %q: %q is not a %d-bit integer", field, raw, bits)
	}
	return v, nil
}

// floatInto decodes a number into *dst; null leaves *dst as it was.
func (d *Decoder) floatInto(dst *float64, field string) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	raw, err := d.num()
	if err != nil {
		return d.mismatch(field, "number")
	}
	v, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		return d.errorf("field %q: %q is out of range", field, raw)
	}
	*dst = v
	return nil
}

// num scans one number by JSON's grammar and returns its text.
func (d *Decoder) num() ([]byte, error) {
	start := d.pos
	digits := func() bool {
		from := d.pos
		for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
			d.pos++
		}
		return d.pos > from
	}
	if d.peek() == '-' {
		d.pos++
	}
	if d.peek() == '0' {
		d.pos++
	} else if !digits() {
		return nil, d.unexpected("in numeric literal")
	}
	if d.peek() == '.' {
		if d.pos++; !digits() {
			return nil, d.unexpected("after decimal point in numeric literal")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !digits() {
			return nil, d.unexpected("in exponent of numeric literal")
		}
	}
	return d.in[start:d.pos], nil
}

// str scans the string at d.pos. A string of plain valid UTF-8 comes
// back as a view of the body; any other takes the slow path.
func (d *Decoder) str() ([]byte, error) {
	start := d.pos + 1
	for i := start; i < len(d.in); {
		switch c := d.in[i]; {
		case c == '"':
			d.pos = i + 1
			return d.in[start:i], nil
		case c == '\\':
			return d.unquote(start, i)
		case c < ' ':
			d.pos = i
			return nil, d.unexpected("in string literal")
		case c < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRune(d.in[i:])
			if r == utf8.RuneError && n == 1 {
				return d.unquote(start, i)
			}
			i += n
		}
	}
	d.pos = len(d.in)
	return nil, d.unexpected("in string literal")
}

// unquote finishes str for a string that needs rewriting from byte i
// on: escapes are resolved and, as encoding/json does, invalid UTF-8
// and unpaired surrogates become U+FFFD. The result lives in d.unq.
func (d *Decoder) unquote(start, i int) ([]byte, error) {
	mark := len(d.unq)
	d.unq = append(d.unq, d.in[start:i]...)
	for i < len(d.in) {
		switch c := d.in[i]; {
		case c == '"':
			d.pos = i + 1
			return d.unq[mark:], nil
		case c == '\\':
			i++
			if i >= len(d.in) {
				d.pos = i
				return nil, d.unexpected("in string escape code")
			}
			switch e := d.in[i]; e {
			case '"', '\\', '/':
				d.unq = append(d.unq, e)
			case 'b':
				d.unq = append(d.unq, '\b')
			case 'f':
				d.unq = append(d.unq, '\f')
			case 'n':
				d.unq = append(d.unq, '\n')
			case 'r':
				d.unq = append(d.unq, '\r')
			case 't':
				d.unq = append(d.unq, '\t')
			case 'u':
				r := d.hex4(i + 1)
				if r < 0 {
					d.pos = i
					return nil, d.errorf(`invalid \u escape`)
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A low half right behind completes the pair; anything
					// else leaves U+FFFD here and is decoded on its own.
					pair := unicode.ReplacementChar
					if i+2 < len(d.in) && d.in[i+1] == '\\' && d.in[i+2] == 'u' {
						pair = utf16.DecodeRune(r, d.hex4(i+3))
					}
					if r = pair; r != unicode.ReplacementChar {
						i += 6
					}
				}
				d.unq = utf8.AppendRune(d.unq, r)
			default:
				d.pos = i
				return nil, d.unexpected("in string escape code")
			}
			i++
		case c < ' ':
			d.pos = i
			return nil, d.unexpected("in string literal")
		case c < utf8.RuneSelf:
			d.unq = append(d.unq, c)
			i++
		default:
			r, n := utf8.DecodeRune(d.in[i:])
			d.unq = utf8.AppendRune(d.unq, r)
			i += n
		}
	}
	d.pos = len(d.in)
	return nil, d.unexpected("in string literal")
}

// hex4 decodes the four hex digits at d.in[i:], or returns -1.
func (d *Decoder) hex4(i int) rune {
	if i+4 > len(d.in) {
		return -1
	}
	var r rune
	for _, c := range d.in[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// ---------------------------------------------------------------------------
// Reading a body.

// ReadBody reads r's whole body into buf[:0], growing it as needed, and
// refuses one longer than limit (through http.MaxBytesReader, so the
// connection is closed behind the 413). BodyErrorStatus maps the error.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64, buf []byte) ([]byte, error) {
	buf = buf[:0]
	// Size the buffer from the declared length — one byte over, so the
	// read that reports EOF needs no growth — but trust a declaration
	// only so far before bytes have arrived to back it.
	if n := r.ContentLength; n > limit {
		return buf, &http.MaxBytesError{Limit: limit}
	} else if n = min(n, maxPooledBytes); int64(cap(buf)) <= n {
		buf = make([]byte, 0, n+1)
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// BodyErrorStatus is the response status for a ReadBody error: 413 past
// the limit, 400 for a body that could not be read.
func BodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// QueryParam returns the first value of name in a raw query string,
// exactly as url.ParseQuery(query).Get(name) would — pairs with a bad
// escape or a semicolon are skipped — but without building the map of
// every parameter to read one, and without allocating unless the value
// holds an escape.
func QueryParam(query, name string) string {
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		key, value, _ := strings.Cut(pair, "=")
		if key != name {
			if !strings.ContainsAny(key, "%+") {
				continue
			}
			if k, err := url.QueryUnescape(key); err != nil || k != name {
				continue
			}
		}
		if strings.ContainsAny(value, "%+") {
			v, err := url.QueryUnescape(value)
			if err != nil {
				continue
			}
			value = v
		}
		return value
	}
	return ""
}
