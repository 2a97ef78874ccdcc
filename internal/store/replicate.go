package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"github.com/qoslab/amf/internal/stream"
)

// This file is the WAL-shipping half of the replication protocol: the
// leader streams framed records to followers over HTTP, and followers
// decode them back into Entries with a RecordReader. The wire framing is
// the on-disk record framing verbatim (u32 len | CRC32C(seq‖payload) |
// u64 seq | payload), so a shipped record carries the same integrity
// check it had on the leader's disk and a follower can never apply a
// record under the wrong sequence number.

// replayRaw walks every intact record with sequence number in
// (from, bound] across the segment files, in order, verifying sequence
// continuity, and hands each (seq, payload) pair to fn before decoding.
// It is the shared traversal under both Replay (decode into Entries) and
// StreamSince (re-frame onto a wire). The caller passes a bound no
// greater than the durable commit index: every record up to it is
// already flushed, so the scan never needs a sync of its own and never
// races the appending tail.
func (w *WAL) replayRaw(from, bound uint64, fn func(seq uint64, payload []byte) error) error {
	if bound <= from {
		return nil
	}
	w.mu.Lock()
	segs := make([]walSegment, len(w.segments))
	copy(segs, w.segments)
	w.mu.Unlock()

	next := from + 1
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].first <= next {
			continue // wholly below the replay point
		}
		last := i == len(segs)-1
		_, _, torn, err := scanSegmentFile(filepath.Join(w.dir, seg.name), seg.first, func(seq uint64, payload []byte) error {
			if seq <= from {
				return nil
			}
			if seq > bound {
				return errPastBound
			}
			if seq != next {
				return fmt.Errorf("store: wal gap: expected seq %d, found %d in %s", next, seq, seg.name)
			}
			if err := fn(seq, payload); err != nil {
				return err
			}
			next = seq + 1
			return nil
		})
		if errors.Is(err, errPastBound) {
			return nil
		}
		if err != nil {
			return err
		}
		if torn > 0 && !last {
			return fmt.Errorf("store: wal corruption inside %s (%d bytes unreadable mid-log)", seg.name, torn)
		}
	}
	return nil
}

// StreamSince writes every record with sequence number > from, up to
// the durable commit index, to dst as framed wire records, oldest first,
// stopping early once maxBytes of payload+framing have been written (0
// means no bound; the cut is always on a record boundary, so the stream
// stays decodable). It returns the last sequence number written (= from
// when nothing qualified). The leader's replication endpoint calls this
// against a live WAL. Only the durable prefix ships, under either policy,
// and the stream runs no fsync of its own: a record whose covering fsync
// has not landed may be lost in a leader crash and its sequence number
// reused, so a follower that applied it would diverge; and an fsync per
// poll would defeat the batching both policies exist for.
func (w *WAL) StreamSince(from uint64, dst io.Writer, maxBytes int64) (last uint64, err error) {
	last = from
	var written int64
	err = w.replayRaw(from, w.DurableSeq(), func(seq uint64, payload []byte) error {
		rec := encodeRecord(seq, payload)
		if maxBytes > 0 && written > 0 && written+int64(len(rec)) > maxBytes {
			return errStreamFull
		}
		if _, werr := dst.Write(rec); werr != nil {
			return fmt.Errorf("store: stream record %d: %w", seq, werr)
		}
		written += int64(len(rec))
		last = seq
		return nil
	})
	if errors.Is(err, errStreamFull) {
		err = nil
	}
	return last, err
}

// errStreamFull is the internal sentinel StreamSince uses to stop the
// segment walk at the byte budget.
var errStreamFull = errors.New("store: stream budget reached")

// errPastBound is the internal sentinel replayRaw uses to stop the
// segment walk at the caller's durable bound.
var errPastBound = errors.New("store: replay bound reached")

// RecordReader decodes a stream of framed WAL records (the body of a
// replication response) back into Entries. It verifies each record's CRC
// and, from the second record on, sequence continuity — a gap means the
// stream is corrupt and the follower must re-sync rather than silently
// skip acked data.
type RecordReader struct {
	br      *bufio.Reader
	header  [recHeaderSize]byte
	payload []byte
	samples []stream.Sample // decode scratch, reused across Next calls
	prev    uint64
	started bool
}

// NewRecordReader wraps an io.Reader carrying framed records.
func NewRecordReader(r io.Reader) *RecordReader {
	return &RecordReader{br: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next decoded entry. It returns io.EOF at a clean end
// of stream; any other error means the stream is torn or corrupt. The
// returned Entry reuses the reader's decode buffers — its Samples are
// only valid until the next call to Next, so callers that retain them
// must copy (applyStream copies element-wise into the apply batch).
func (rr *RecordReader) Next() (Entry, error) {
	if _, err := io.ReadFull(rr.br, rr.header[:]); err != nil {
		if err == io.EOF {
			return Entry{}, io.EOF
		}
		return Entry{}, fmt.Errorf("store: record stream: torn header: %w", err)
	}
	plen, wantCRC, seq := decodeRecordHeader(rr.header[:])
	if plen <= 0 || plen > MaxRecordBytes {
		return Entry{}, fmt.Errorf("store: record stream: payload length %d out of range", plen)
	}
	if cap(rr.payload) < plen {
		rr.payload = make([]byte, plen)
	}
	rr.payload = rr.payload[:plen]
	if _, err := io.ReadFull(rr.br, rr.payload); err != nil {
		return Entry{}, fmt.Errorf("store: record stream: torn payload at seq %d: %w", seq, err)
	}
	if recordCRC(seq, rr.payload) != wantCRC {
		return Entry{}, fmt.Errorf("store: record stream: CRC mismatch at seq %d", seq)
	}
	if rr.started && seq != rr.prev+1 {
		return Entry{}, fmt.Errorf("store: record stream: gap: expected seq %d, got %d", rr.prev+1, seq)
	}
	rr.started = true
	rr.prev = seq
	e, err := decodeEntryInto(rr.samples, seq, rr.payload)
	if err == nil && cap(e.Samples) > cap(rr.samples) {
		rr.samples = e.Samples[:cap(e.Samples)]
	}
	return e, err
}
