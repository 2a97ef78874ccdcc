package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Checkpoint files: checkpoint-<seq>.ckpt, written atomically via
// temp-file → fsync → rename → dir-fsync. Format:
//
//	8B  magic "AMFCKPT1"
//	u64 sequence number the state covers (all WAL records <= seq)
//	u32 CRC32C of the state blob
//	u64 state blob length
//	state blob
const (
	ckptMagic  = "AMFCKPT1"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"

	// retainCheckpoints is how many checkpoints pruneCheckpoints keeps:
	// the newest plus two fallbacks against corruption.
	retainCheckpoints = 3

	// MaxCheckpointBytes bounds a checkpoint blob (1 GiB): enough for
	// millions of rank-64 user/service vectors, small enough to reject
	// a garbage length field without attempting the allocation.
	MaxCheckpointBytes = int64(1) << 30
)

func checkpointName(seq uint64) string {
	return fmt.Sprintf("%s%020d%s", ckptPrefix, seq, ckptSuffix)
}

// writeCheckpoint atomically persists a state blob covering all WAL
// records with sequence numbers <= seq. A crash at any point leaves
// either the previous checkpoint set or the new file complete — never a
// half-written checkpoint under the final name.
func writeCheckpoint(dir string, seq uint64, data []byte) error {
	final := filepath.Join(dir, checkpointName(seq))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: create checkpoint temp: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var hdr [20]byte
	binary.LittleEndian.PutUint64(hdr[0:8], seq)
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.Checksum(data, crcTable))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(len(data)))
	if _, err := bw.WriteString(ckptMagic); err == nil {
		_, err = bw.Write(hdr[:])
		if err == nil {
			_, err = bw.Write(data)
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publish checkpoint: %w", err)
	}
	return syncDir(dir)
}

// listCheckpoints returns checkpoint sequence numbers in dir, ascending.
func listCheckpoints(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: list checkpoints: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
		seq, err := strconv.ParseUint(num, 10, 64)
		if err != nil {
			continue // stray file; ignore
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// pruneCheckpoints removes all but the newest retainCheckpoints.
func pruneCheckpoints(dir string) error {
	seqs, err := listCheckpoints(dir)
	if err != nil {
		return err
	}
	if len(seqs) <= retainCheckpoints {
		return nil
	}
	for _, seq := range seqs[:len(seqs)-retainCheckpoints] {
		if err := os.Remove(filepath.Join(dir, checkpointName(seq))); err != nil {
			return fmt.Errorf("store: prune checkpoint: %w", err)
		}
	}
	return syncDir(dir)
}

// readCheckpoint loads and validates one checkpoint file.
func readCheckpoint(path string) (seq uint64, data []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, fmt.Errorf("store: open checkpoint: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, len(ckptMagic)+20)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return 0, nil, fmt.Errorf("store: checkpoint header: %w", err)
	}
	if string(hdr[:len(ckptMagic)]) != ckptMagic {
		return 0, nil, fmt.Errorf("store: checkpoint magic mismatch")
	}
	body := hdr[len(ckptMagic):]
	seq = binary.LittleEndian.Uint64(body[0:8])
	wantCRC := binary.LittleEndian.Uint32(body[8:12])
	n := int64(binary.LittleEndian.Uint64(body[12:20]))
	if n < 0 || n > MaxCheckpointBytes {
		return 0, nil, fmt.Errorf("store: checkpoint length %d out of range", n)
	}
	data = make([]byte, n)
	if _, err := io.ReadFull(br, data); err != nil {
		return 0, nil, fmt.Errorf("store: checkpoint body: %w", err)
	}
	if crc32.Checksum(data, crcTable) != wantCRC {
		return 0, nil, fmt.Errorf("store: checkpoint CRC mismatch")
	}
	return seq, data, nil
}

// loadNewestCheckpoint returns the newest valid checkpoint in dir,
// falling back to older ones when a file fails validation (each fallback
// is logged — it means a checkpoint was corrupted on disk). ok is false
// when the directory holds no checkpoints at all; an error is returned
// when checkpoints exist but none validates, because silently starting
// empty would masquerade as data loss.
func loadNewestCheckpoint(dir string, log *slog.Logger) (seq uint64, data []byte, ok bool, err error) {
	if log == nil {
		log = slog.Default()
	}
	seqs, err := listCheckpoints(dir)
	if err != nil {
		return 0, nil, false, err
	}
	if len(seqs) == 0 {
		return 0, nil, false, nil
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		path := filepath.Join(dir, checkpointName(seqs[i]))
		s, d, rerr := readCheckpoint(path)
		if rerr != nil {
			log.Warn("store: skipping invalid checkpoint", "path", path, "err", rerr)
			continue
		}
		return s, d, true, nil
	}
	return 0, nil, false, fmt.Errorf("store: %d checkpoint(s) present in %s but none valid", len(seqs), dir)
}
