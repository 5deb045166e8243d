// Package durable is the single-node persistence layer beneath the name
// service: a per-shard write-ahead log plus periodic snapshots, built so
// that a crash at any byte of any write recovers to a state the service
// actually passed through.
//
// The package splits into two halves:
//
//   - Sink is the storage boundary: a flat directory of files with create,
//     append, fsync, list, read, and remove. DirSink backs it with the OS;
//     MemSink backs it with memory for hermetic tests; and CrashBudget
//     wraps any Sink to deterministically kill the run at an exact write
//     offset, which is what the crash-point differential tests iterate
//     over.
//
//   - Store is the log discipline over a Sink: CRC-framed, length-prefixed
//     records (the same framing conventions as internal/wire: a length
//     prefix up front, every failure mode mapped to a clean error) appended
//     to the current WAL segment, and checkpoints that seal a snapshot of
//     the application state, rotate to a fresh segment, and only then prune
//     the artifacts the snapshot supersedes. Open replays whatever a crash
//     left behind: the newest snapshot that validates, then the WAL tail,
//     with a torn or corrupt tail truncated rather than trusted.
//
// The Store knows nothing about ledgers or names; record and snapshot
// payloads are opaque bytes. The namesvc layer encodes ledger events and
// sealed shard state into them and verifies its own digests on recovery.
// That separation keeps the crash machinery reusable for the planned epoch
// replication across coordinators: a replica is, to first order, a Store
// whose records arrive over the network instead of from the local epoch
// loop.
package durable

import "errors"

// ErrCrashed is returned by every operation on a sink whose CrashBudget is
// exhausted: the simulated machine is dead, and nothing written after the
// crash point reaches storage.
var ErrCrashed = errors.New("durable: injected crash")

// ErrCorrupt is returned by Open when the artifacts on disk cannot be
// reconciled into any state the log ever passed through — a record gap, a
// mid-file CRC failure with valid data after it, or a snapshot newer than
// the surviving WAL. A torn tail is NOT corruption; it is truncated
// silently (reported via Recovered.Torn) because a crash mid-append is
// exactly what the log exists to survive.
var ErrCorrupt = errors.New("durable: corrupt log")

// File is one append-only file under a Sink.
//
// Concurrency: Writes are serialized by the Store's owner, and the Store
// serializes every Sync on one sink — File.Sync and Sink.Sync alike — under
// its flush mutex, so an implementation never sees two Writes or two Syncs
// at once. A Sync may, however, run concurrently with a Write on the same
// File, as *os.File allows: a group-commit fsync runs outside the owner's
// lock while the owner keeps appending. Such a Sync covers every Write that
// returned before it began; whether it covers the overlapping one is
// unspecified (the Store does not rely on it).
type File interface {
	// Write appends p. A short write with a nil error never happens; on
	// error the prefix that reports written may or may not be durable.
	Write(p []byte) (int, error)
	// Sync forces everything written so far to stable storage.
	Sync() error
	// Close releases the handle without syncing.
	Close() error
}

// Sink is a flat directory of files: the storage boundary beneath a Store.
// Each shard's Store owns its sink exclusively and calls its methods one
// at a time; the only concurrency an implementation must allow is the
// File-level Sync-during-Write described on File.
type Sink interface {
	// Create creates (or truncates) a file open for appending.
	Create(name string) (File, error)
	// ReadAll returns a file's full contents.
	ReadAll(name string) ([]byte, error)
	// List returns the names of every file, in any order.
	List() ([]string, error)
	// Remove deletes a file. Removing a missing file is not an error, so
	// a prune interrupted by a crash can simply run again.
	Remove(name string) error
	// Sync forces the directory's own metadata (file creation, removal)
	// to stable storage.
	Sync() error
}
