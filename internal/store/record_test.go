package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// TestRecordCRCEquivalence pins recordCRC's seq-prefix table walk to the
// reference computation (crc32.Update over the 8 little-endian seq
// bytes, then the payload). On-disk logs written by earlier builds used
// the reference form directly — any divergence here would make every
// existing WAL read as corrupt.
func TestRecordCRCEquivalence(t *testing.T) {
	payloads := [][]byte{nil, {}, {0}, []byte("qos"), make([]byte, 4096)}
	for i := range payloads[4] {
		payloads[4][i] = byte(i * 31)
	}
	for _, seq := range []uint64{0, 1, 255, 256, 0xdeadbeef, 1<<63 + 7, ^uint64(0)} {
		for _, p := range payloads {
			var sb [8]byte
			binary.LittleEndian.PutUint64(sb[:], seq)
			want := crc32.Update(crc32.Update(0, crcTable, sb[:]), crcTable, p)
			if got := recordCRC(seq, p); got != want {
				t.Fatalf("recordCRC(%d, %d bytes) = %#x, want %#x", seq, len(p), got, want)
			}
		}
	}
	// Golden value: a cross-build tripwire independent of both
	// implementations above.
	if got := recordCRC(42, []byte("hello")); got != 0x87af9708 {
		t.Fatalf("recordCRC(42, \"hello\") = %#x, want golden 0x87af9708", got)
	}
}

// walScript appends a fixed script of records — samples of one and of
// many, every registration and removal kind, an empty and a chunked
// batch — closes the log and returns its one segment file.
func walScript(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	w := testWAL(t, dir, WALOptions{})
	steps := []func() (uint64, error){
		func() (uint64, error) { return w.AppendSamples(sampleBatch(0, 1)) },
		func() (uint64, error) { return w.AppendRegisterUser(-3, "alice") },
		func() (uint64, error) { return w.AppendRegisterService(1<<40, "svc/eu-west/1") },
		func() (uint64, error) { return w.AppendSamples(sampleBatch(500, 64)) },
		func() (uint64, error) { return w.AppendRemoveUser(42) },
		func() (uint64, error) { return w.AppendRemoveService(-1) },
		func() (uint64, error) { return w.AppendSamples(nil) },
		func() (uint64, error) { return w.appendSamplesChunked(sampleBatch(900, 11), 4) },
		func() (uint64, error) { return w.appendPayload([]byte("opaque")) },
		func() (uint64, error) { return w.AppendSamples(sampleBatch(2000, 3)) },
	}
	for i, step := range steps {
		if _, err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWALSegmentBytesPinned pins the on-disk format byte for byte: the
// segment walScript writes must hash to the digest of the one an earlier
// build wrote, so a log written by either build recovers on the other.
func TestWALSegmentBytesPinned(t *testing.T) {
	const want = "ad59d2ce13e0e532f5d49f13d4bb91c2fa458d76dd95c7ed59ae555c4070ab88"
	sum := sha256.Sum256(walScript(t))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("segment SHA-256 %s, want %s: the WAL's bytes on disk changed", got, want)
	}
}
