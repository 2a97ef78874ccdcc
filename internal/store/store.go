// Package store is the unified durable-state layer of the prediction
// service: a segmented binary write-ahead log, an atomic checkpoint
// writer, and the recovery path that stitches the two back into a live
// engine after a crash.
//
// AMF's whole value is *online* learning (paper Sec. IV-C): the model is
// the accumulated product of every streamed sample, so losing the
// process must not lose the stream. The layer follows the classic
// journal-before-apply design:
//
//   - WAL. Observation batches (and entity removals) are appended as
//     length-prefixed, CRC32C-protected records with contiguous sequence
//     numbers, into size-rotated segment files. Two fsync policies
//     trade durability for throughput, over one durable commit index
//     that advances only when an fsync lands: SyncGroup makes an acked
//     write a durable write — the acking caller waits in WaitDurable,
//     which runs the covering fsync itself unless one is already in
//     flight, so concurrent writers share it (group commit); SyncInterval
//     fsyncs on a 100 ms background tick (loss bounded by that window).
//     A follower reads only records at or below the commit index. A
//     torn final record — the signature of a crash mid-write — is
//     truncated away on open; corruption anywhere else is an error,
//     never silently skipped.
//
//   - Checkpoints. A background checkpointer periodically captures the
//     full service state (model snapshot + registry directories) through
//     a caller-supplied capture function, writes it via the
//     temp-file → fsync → rename → dir-fsync dance so a crash can never
//     leave a half-written checkpoint in place, retains the last three, and
//     truncates WAL segments wholly covered by the checkpoint's sequence
//     number. Recovery therefore replays only the WAL tail.
//
//   - Recovery. Open the newest valid checkpoint (falling back to older
//     ones on CRC mismatch), restore it, then replay WAL records with
//     sequence numbers beyond the checkpoint through the engine's normal
//     observe path, verifying sequence continuity along the way.
//
// Replay is at-least-once by design: a checkpoint captured while the
// writer kept journaling may already include a few records past its
// recorded sequence number, and replaying an observation twice is just
// one extra SGD step on data the model has already seen. What is never
// acceptable — and what the continuity check catches — is a *gap*:
// acked records that vanished.
//
// The engine journals through this package (engine.Config/SetJournal);
// the server's state endpoints and the checkpoint loop ride Manager. A
// follower reads another process's directory read-only: LoadCheckpoint,
// then ReplayDir — the same walk recovery's Replay runs.
package store

import (
	"fmt"
	"os"
)

// syncDir fsyncs a directory so renames and file creations inside it are
// durable. Failure is returned — callers on exotic filesystems that do
// not support directory fsync may choose to ignore it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}
