package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if err := writeCheckpoint(dir, 41, []byte("state-41")); err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpoint(dir, 99, []byte("state-99")); err != nil {
		t.Fatal(err)
	}
	seq, data, ok, err := loadNewestCheckpoint(dir, quietLogger())
	if err != nil || !ok {
		t.Fatalf("load: ok=%v err=%v", ok, err)
	}
	if seq != 99 || !bytes.Equal(data, []byte("state-99")) {
		t.Fatalf("got seq=%d data=%q", seq, data)
	}
}

func TestCheckpointEmptyDir(t *testing.T) {
	_, _, ok, err := loadNewestCheckpoint(t.TempDir(), quietLogger())
	if err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	// A directory that does not exist at all is also "no checkpoint".
	_, _, ok, err = loadNewestCheckpoint(filepath.Join(t.TempDir(), "nope"), quietLogger())
	if err != nil || ok {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}
}

func TestCheckpointFallsBackPastCorruption(t *testing.T) {
	dir := t.TempDir()
	if err := writeCheckpoint(dir, 10, []byte("good-old")); err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpoint(dir, 20, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest file's body.
	path := filepath.Join(dir, checkpointName(20))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	seq, body, ok, err := loadNewestCheckpoint(dir, quietLogger())
	if err != nil || !ok {
		t.Fatalf("fallback load: ok=%v err=%v", ok, err)
	}
	if seq != 10 || !bytes.Equal(body, []byte("good-old")) {
		t.Fatalf("fallback got seq=%d data=%q", seq, body)
	}
}

func TestCheckpointAllCorruptIsAnError(t *testing.T) {
	dir := t.TempDir()
	if err := writeCheckpoint(dir, 5, []byte("only")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointName(5))
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := loadNewestCheckpoint(dir, quietLogger()); err == nil {
		t.Fatal("all-corrupt checkpoint set must error, not silently start empty")
	}
}

func TestCheckpointRetention(t *testing.T) {
	dir := t.TempDir()
	for seq := uint64(1); seq <= 6; seq++ {
		if err := writeCheckpoint(dir, seq*10, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
		if err := pruneCheckpoints(dir); err != nil {
			t.Fatal(err)
		}
	}
	seqs, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[0] != 40 || seqs[2] != 60 {
		t.Fatalf("retention kept %v, want [40 50 60]", seqs)
	}
}

func TestCheckpointTempFilesIgnoredAndCleaned(t *testing.T) {
	dir := t.TempDir()
	// A crash mid-write leaves a .tmp file; it must never be loaded.
	tmp := filepath.Join(dir, checkpointName(77)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, ok, err := loadNewestCheckpoint(dir, quietLogger())
	if err != nil || ok {
		t.Fatalf("tmp leftovers must be invisible: ok=%v err=%v", ok, err)
	}
}
