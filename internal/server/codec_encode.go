package server

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"

	"github.com/qoslab/amf/internal/ingest"
)

// This file is the encode half of the wire codec: append-style encoders
// for the four hot responses, and for the observe request the gateway
// sends each shard of a split batch, whose output is, byte for byte, what
// json.NewEncoder(w).Encode(v) writes for the struct in api.go — field
// order, omitempty, encoding/json's float format and HTML-safe string
// escaping, the trailing newline. Names are taken as string or []byte
// alike, so a name decoded as a view of the request is echoed without
// becoming a string first. The golden table and FuzzAppendString /
// FuzzAppendFloat in codec_test.go pin the identity; FuzzDecodeObserve
// also re-encodes every body it decodes and decodes it again.

// errUnsupportedFloat is the codec's json.UnsupportedValueError: NaN and
// the infinities have no JSON spelling, so a response holding one is
// refused whole.
var errUnsupportedFloat = errors.New("json: unsupported value: NaN or Inf")

// batchRow is one BatchPrediction whose name is still a view.
type batchRow struct {
	Service    []byte
	Value      float64
	Confidence float64
	OK         bool
}

// appendObserveResponse encodes an ObserveResponse.
func appendObserveResponse(dst []byte, r ObserveResponse) []byte {
	dst = append(dst, `{"accepted":`...)
	dst = strconv.AppendInt(dst, int64(r.Accepted), 10)
	dst = append(dst, `,"newUsers":`...)
	dst = strconv.AppendInt(dst, int64(r.NewUsers), 10)
	dst = append(dst, `,"newServices":`...)
	dst = strconv.AppendInt(dst, int64(r.NewServices), 10)
	return append(dst, "}\n"...)
}

// AppendObserveRequest encodes an ObserveRequest body: what the gateway
// sends each shard of a split observe. Like the response encoders it
// fails on a NaN or ±Inf value, which CheckObservations refuses.
func AppendObserveRequest(dst []byte, obs []ingest.Observation) ([]byte, error) {
	dst = append(dst, `{"observations":[`...)
	for i := range obs {
		o := &obs[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(append(dst, `{"user":`...), o.User)
		dst = appendString(append(dst, `,"service":`...), o.Service)
		var ok bool
		if dst, ok = appendFloat(append(dst, `,"value":`...), o.Value); !ok {
			return dst, errUnsupportedFloat
		}
		if o.TimestampMs != 0 {
			dst = strconv.AppendInt(append(dst, `,"timestampMs":`...), o.TimestampMs, 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...), nil
}

// appendPredictResponse encodes a PredictResponse.
func appendPredictResponse(dst []byte, user, service string, value, confidence float64) ([]byte, error) {
	dst = append(dst, `{"user":`...)
	dst = appendString(dst, user)
	dst = append(dst, `,"service":`...)
	dst = appendString(dst, service)
	dst = append(dst, `,"value":`...)
	dst, okV := appendFloat(dst, value)
	dst = append(dst, `,"confidence":`...)
	dst, okC := appendFloat(dst, confidence)
	if !okV || !okC {
		return dst, errUnsupportedFloat
	}
	return append(dst, "}\n"...), nil
}

// appendBatchResponse encodes a BatchPredictResponse. An empty rows
// encodes as [], never null: the handler's list was never nil.
func appendBatchResponse(dst, user []byte, rows []batchRow) ([]byte, error) {
	dst = append(dst, `{"user":`...)
	dst = appendString(dst, user)
	dst = append(dst, `,"predictions":[`...)
	ok := true
	for i := range rows {
		row := &rows[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"service":`...)
		dst = appendString(dst, row.Service)
		if row.Value != 0 {
			var okV bool
			dst = append(dst, `,"value":`...)
			dst, okV = appendFloat(dst, row.Value)
			ok = ok && okV
		}
		if row.Confidence != 0 {
			var okC bool
			dst = append(dst, `,"confidence":`...)
			dst, okC = appendFloat(dst, row.Confidence)
			ok = ok && okC
		}
		if row.OK {
			dst = append(dst, `,"ok":true}`...)
		} else {
			dst = append(dst, `,"ok":false}`...)
		}
	}
	if !ok {
		return dst, errUnsupportedFloat
	}
	return append(dst, "]}\n"...), nil
}

// appendRankResponse encodes a RankResponse. An empty ranked encodes as
// [], never null, for the same reason as appendBatchResponse's rows.
func appendRankResponse(dst, user []byte, metric string, ranked []RankedService, unknown [][]byte, candidates int, viewVersion uint64) ([]byte, error) {
	dst = append(dst, `{"user":`...)
	dst = appendString(dst, user)
	dst = append(dst, `,"metric":`...)
	dst = appendString(dst, metric)
	dst = append(dst, `,"ranked":[`...)
	ok := true
	for i := range ranked {
		if i > 0 {
			dst = append(dst, ',')
		}
		var okV bool
		dst = append(dst, `{"service":`...)
		dst = appendString(dst, ranked[i].Service)
		dst = append(dst, `,"value":`...)
		dst, okV = appendFloat(dst, ranked[i].Value)
		ok = ok && okV
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	if len(unknown) > 0 {
		dst = append(dst, `,"unknown":[`...)
		for i, name := range unknown {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, name)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"candidates":`...)
	dst = strconv.AppendInt(dst, int64(candidates), 10)
	dst = append(dst, `,"viewVersion":`...)
	dst = strconv.AppendUint(dst, viewVersion, 10)
	if !ok {
		return dst, errUnsupportedFloat
	}
	return append(dst, "}\n"...), nil
}

// appendFloat appends f the way encoding/json formats a float64: the
// shortest text that round-trips, in exponent form only below 1e-6 or
// from 1e21 up, with a two-digit negative exponent cut to one. It
// reports false, appending nothing, for NaN and the infinities.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on: ", \ and control bytes escaped (\b \f \n \r \t
// by name), <, > and & as \u00XX, U+2028 and U+2029 as \u202X, and each
// byte of invalid UTF-8 as \ufffd.
func appendString[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// Converting at most UTFMax bytes keeps the string on the stack.
		r, size := utf8.DecodeRuneInString(string(s[i:min(len(s), i+utf8.UTFMax)]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
