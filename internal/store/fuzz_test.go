package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeEntry hammers the WAL record decoder with arbitrary payload
// bytes: it must never panic, and anything it accepts must re-encode and
// decode back to the same entry (the decoder is the first thing touching
// attacker-controllable on-disk bytes during recovery).
func FuzzDecodeEntry(f *testing.F) {
	f.Add(encodeSamples(sampleBatch(0, 3)))
	f.Add(encodeSamples(nil))
	f.Add(encodeRemove(EntryRemoveUser, 42))
	f.Add(encodeRemove(EntryRemoveService, -1))
	f.Add(encodeRegister(EntryRegisterUser, 7, "alice"))
	f.Add(encodeRegister(EntryRegisterService, 9, "svc/eu-west/1"))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{9, 9, 9})

	f.Fuzz(func(t *testing.T, payload []byte) {
		e, err := decodeEntryInto(nil, 7, payload)
		if err != nil {
			return
		}
		var again []byte
		switch e.Kind {
		case EntrySamples:
			again = encodeSamples(e.Samples)
		case EntryRemoveUser, EntryRemoveService:
			again = encodeRemove(e.Kind, e.ID)
		case EntryRegisterUser, EntryRegisterService:
			again = encodeRegister(e.Kind, e.ID, e.Name)
		default:
			t.Fatalf("decoder accepted unknown kind %d", e.Kind)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("round-trip changed payload: %x vs %x", again, payload)
		}
		e2, err := decodeEntryInto(nil, 7, again)
		if err != nil {
			t.Fatalf("re-decode of accepted payload failed: %v", err)
		}
		if e2.Kind != e.Kind || e2.ID != e.ID || e2.Name != e.Name || len(e2.Samples) != len(e.Samples) {
			t.Fatalf("round-trip changed entry: %+v vs %+v", e2, e)
		}
	})
}

// maxFuzzSegmentBytes caps the segment file FuzzSegmentScan writes. Past
// it an input only grows the fuzzer's work, not what it reaches: the
// seeds (a header and two records, 93 bytes) fit, and so do three
// remove records. Each exec costs about a millisecond of file-system
// work, and the fuzzer minimizes each new input in a number of execs
// quadratic in its length; at 48 bytes that minimizing alone held both
// workers for seconds, reported as 0 execs/sec.
const maxFuzzSegmentBytes = 96

// FuzzSegmentScan feeds arbitrary bytes to the segment scanner: whatever
// is on disk, opening a WAL over it must not panic, and an open that
// succeeds must yield a log whose replay succeeds too (the scanner
// truncated everything it could not vouch for). Every exec of one
// process writes its segment into the same directory: the only file in
// it is the one each exec overwrites.
func FuzzSegmentScan(f *testing.F) {
	valid := func(build func(w *WAL)) []byte {
		dir, err := os.MkdirTemp("", "walfuzz")
		if err != nil {
			f.Fatal(err)
		}
		defer os.RemoveAll(dir)
		w, err := OpenWAL(dir, WALOptions{Logger: quietLogger()})
		if err != nil {
			f.Fatal(err)
		}
		build(w)
		w.Close()
		data, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add([]byte(segMagic))
	f.Add(valid(func(w *WAL) { w.AppendSamples(sampleBatch(0, 2)) }))
	f.Add(valid(func(w *WAL) { w.AppendRemoveUser(3); w.AppendSamples(sampleBatch(5, 1)) }))
	f.Add([]byte{})
	f.Add([]byte("AMFWAL1\nxxxxxxxxxxxxxxxxxxxx"))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), maxFuzzSegmentBytes)]
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(dir, WALOptions{Logger: quietLogger()})
		if err != nil {
			return // structurally unopenable is fine; panics are not
		}
		defer w.Close()
		count := 0
		if err := w.Replay(0, func(e Entry) error { count++; return nil }); err != nil {
			t.Fatalf("replay after successful open failed: %v", err)
		}
		if count > 0 && w.LastSeq() == 0 {
			t.Fatalf("replayed %d entries but LastSeq=0", count)
		}
	})
}
