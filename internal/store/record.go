package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"time"

	"github.com/qoslab/amf/internal/stream"
)

// On-disk record framing, shared by every segment file:
//
//	u32  payload length (little endian)
//	u32  CRC32C over seq || payload
//	u64  sequence number
//	payload
//
// The CRC covers the sequence number so a record can never be replayed
// under the wrong position, and the length is bounded by MaxRecordBytes
// so a torn length field cannot make the scanner allocate gigabytes.
const (
	recHeaderSize = 16
	// MaxRecordBytes bounds a single record's payload. The largest
	// legitimate payload is an engine drain batch (a few thousand
	// samples at 32 bytes each); 16 MiB leaves two orders of magnitude
	// of headroom while still rejecting garbage lengths instantly.
	MaxRecordBytes = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EntryKind discriminates the payload types recorded in the WAL.
type EntryKind uint8

const (
	// EntrySamples is a batch of QoS observations (the common record).
	EntrySamples EntryKind = 1
	// EntryRemoveUser journals a churn departure of a user ID.
	EntryRemoveUser EntryKind = 2
	// EntryRemoveService journals a churn departure of a service ID.
	EntryRemoveService EntryKind = 3
	// EntryRegisterUser journals a user name⇄ID registration. Samples
	// reference dense model IDs that the server's registries assign at
	// observe time; without these records a recovered model would hold
	// factors for IDs whose names only lived in server memory.
	EntryRegisterUser EntryKind = 4
	// EntryRegisterService journals a service name⇄ID registration.
	EntryRegisterService EntryKind = 5
)

// MaxNameBytes bounds a registration record's name, mirroring what a
// sane API client would send and keeping hostile on-disk bytes from
// materializing huge strings.
const MaxNameBytes = 4096

// Entry is one decoded WAL record.
type Entry struct {
	Seq  uint64
	Kind EntryKind
	// Samples is set for EntrySamples.
	Samples []stream.Sample
	// ID is set for EntryRemove* / EntryRegister*.
	ID int
	// Name is set for EntryRegisterUser / EntryRegisterService.
	Name string
}

const sampleWire = 32 // i64 time, i64 user, i64 service, f64 value

// maxSamplesPerRecord is the largest observation count whose
// encodeSamples payload still fits in MaxRecordBytes (5 header bytes +
// sampleWire per sample). WAL.AppendSamples splits bigger batches across
// several records, so a legitimate batch of any size can be journaled —
// an oversized batch must never be acked-but-rejected (a silent
// durability hole).
const maxSamplesPerRecord = (MaxRecordBytes - 5) / sampleWire

// encodeSamples appends an EntrySamples payload for a batch of
// observations to dst: kind byte, u32 count, then 32 fixed bytes per
// sample.
func encodeSamples(dst []byte, ss []stream.Sample) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 5+sampleWire*len(ss))[:n+5+sampleWire*len(ss)]
	buf := dst[n:]
	buf[0] = byte(EntrySamples)
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(ss)))
	off := 5
	for _, s := range ss {
		binary.LittleEndian.PutUint64(buf[off:], uint64(int64(s.Time)))
		binary.LittleEndian.PutUint64(buf[off+8:], uint64(int64(s.User)))
		binary.LittleEndian.PutUint64(buf[off+16:], uint64(int64(s.Service)))
		binary.LittleEndian.PutUint64(buf[off+24:], math.Float64bits(s.Value))
		off += sampleWire
	}
	return dst
}

// decodeSamplesInto decodes an EntrySamples payload. It is strict: the
// count must match the payload length exactly and every value must be
// finite, so a corrupted-but-CRC-colliding record cannot poison the
// model. It decodes into scratch's backing array when that is large
// enough (scratch is resliced, never grown in place past its capacity).
// Replay-heavy paths pass a reused buffer so a million-record replay
// costs a handful of allocations instead of one slice per record; the
// returned slice is only valid until scratch is reused.
func decodeSamplesInto(scratch []stream.Sample, p []byte) ([]stream.Sample, error) {
	if len(p) < 5 || EntryKind(p[0]) != EntrySamples {
		return nil, fmt.Errorf("store: not a samples payload")
	}
	n := int(binary.LittleEndian.Uint32(p[1:5]))
	if len(p)-5 != n*sampleWire {
		return nil, fmt.Errorf("store: samples payload: count %d does not match %d payload bytes", n, len(p)-5)
	}
	out := scratch
	if cap(out) < n {
		out = make([]stream.Sample, n)
	}
	out = out[:n]
	off := 5
	for i := range out {
		v := math.Float64frombits(binary.LittleEndian.Uint64(p[off+24:]))
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("store: samples payload: non-finite value at sample %d", i)
		}
		out[i] = stream.Sample{
			Time:    time.Duration(int64(binary.LittleEndian.Uint64(p[off:]))),
			User:    int(int64(binary.LittleEndian.Uint64(p[off+8:]))),
			Service: int(int64(binary.LittleEndian.Uint64(p[off+16:]))),
			Value:   v,
		}
		off += sampleWire
	}
	return out, nil
}

// encodeRemove appends an EntryRemoveUser / EntryRemoveService payload
// to dst.
func encodeRemove(dst []byte, kind EntryKind, id int) []byte {
	return binary.LittleEndian.AppendUint64(append(dst, byte(kind)), uint64(int64(id)))
}

// encodeRegister appends an EntryRegisterUser / EntryRegisterService
// payload to dst: kind byte, i64 ID, then the raw name bytes.
func encodeRegister(dst []byte, kind EntryKind, id int, name string) []byte {
	return append(encodeRemove(dst, kind, id), name...)
}

// decodeEntryInto decodes a record payload into a typed Entry, with a
// reusable sample scratch buffer (see decodeSamplesInto): the returned
// Entry's Samples alias scratch's backing array when it is large enough,
// so the Entry is only valid until the scratch is reused.
func decodeEntryInto(scratch []stream.Sample, seq uint64, p []byte) (Entry, error) {
	if len(p) == 0 {
		return Entry{}, fmt.Errorf("store: empty record payload")
	}
	switch EntryKind(p[0]) {
	case EntrySamples:
		ss, err := decodeSamplesInto(scratch, p)
		if err != nil {
			return Entry{}, err
		}
		return Entry{Seq: seq, Kind: EntrySamples, Samples: ss}, nil
	case EntryRemoveUser, EntryRemoveService:
		if len(p) != 9 {
			return Entry{}, fmt.Errorf("store: removal payload: want 9 bytes, got %d", len(p))
		}
		return Entry{Seq: seq, Kind: EntryKind(p[0]), ID: int(int64(binary.LittleEndian.Uint64(p[1:])))}, nil
	case EntryRegisterUser, EntryRegisterService:
		if len(p) < 10 || len(p) > 9+MaxNameBytes {
			return Entry{}, fmt.Errorf("store: registration payload: %d bytes out of range", len(p))
		}
		return Entry{
			Seq:  seq,
			Kind: EntryKind(p[0]),
			ID:   int(int64(binary.LittleEndian.Uint64(p[1:]))),
			Name: string(p[9:]),
		}, nil
	default:
		return Entry{}, fmt.Errorf("store: unknown record kind %d", p[0])
	}
}

// encodeRecordHeader writes the header that frames payload as record seq
// on disk into h.
func encodeRecordHeader(h *[recHeaderSize]byte, seq uint64, payload []byte) {
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], recordCRC(seq, payload))
	binary.LittleEndian.PutUint64(h[8:16], seq)
}

// decodeRecordHeader parses a record header, returning the payload
// length, the expected CRC, and the sequence number.
func decodeRecordHeader(h []byte) (plen int, crc uint32, seq uint64) {
	return int(binary.LittleEndian.Uint32(h[0:4])),
		binary.LittleEndian.Uint32(h[4:8]),
		binary.LittleEndian.Uint64(h[8:16])
}

// recordCRC computes the CRC of a record body (seq || payload). The
// seq prefix is folded in by a per-byte table walk instead of
// crc32.Update over a stack buffer: Update's slice parameter escapes,
// which would cost a heap allocation per record on the scan/replay and
// append paths. The table walk is bit-identical to hashing the 8
// little-endian seq bytes (Update conditions the running CRC with ^ on
// entry and exit, so the raw state threads through).
func recordCRC(seq uint64, payload []byte) uint32 {
	crc := ^uint32(0)
	for i := 0; i < 8; i++ {
		crc = crcTable[byte(crc)^byte(seq)] ^ (crc >> 8)
		seq >>= 8
	}
	return crc32.Update(^crc, crcTable, payload)
}
