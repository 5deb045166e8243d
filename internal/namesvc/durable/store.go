package durable

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// File layout under one Sink (one shard):
//
//	wal-<start>.log    WAL segment holding records start+1, start+2, …
//	snap-<seq>.snap    snapshot sealing the state after record seq
//
// Both numbers are 16-digit lower-case hex, so lexical and numeric order
// agree. A checkpoint at seq S writes snap-<S>.snap, fsyncs it, fsyncs the
// directory, opens wal-<S>.log as the new segment, and only then prunes
// every artifact the snapshot supersedes — so at every instant, some
// (snapshot, segment-suffix) pair on disk reconstructs the state, whichever
// byte the machine died on.

// Options parameterizes a Store.
type Options struct {
	// SyncEachAppend fsyncs the segment after every appended record — the
	// per-epoch fsync policy. Off, the caller syncs when its commit rule
	// asks (Store.Sync: a group-commit waiter).
	SyncEachAppend bool
	// MaxPayload bounds one record or snapshot payload; larger appends are
	// rejected and larger length prefixes found during recovery are
	// treated as tail damage. Zero means 1<<26 (64 MiB).
	MaxPayload int
}

func (o Options) normalized() Options {
	if o.MaxPayload <= 0 {
		o.MaxPayload = 1 << 26
	}
	return o
}

// Record is one recovered WAL record.
type Record struct {
	Seq     uint64
	Payload []byte
}

// Recovered is what Open found on disk: the newest snapshot that
// validates, and the WAL records after it, in sequence order. The caller
// rebuilds its state by loading Snapshot and applying Records; Seq is the
// sequence number the rebuilt state corresponds to.
type Recovered struct {
	// SnapSeq is the sequence the snapshot seals; 0 with a nil Snapshot
	// means recovery started from an empty state.
	SnapSeq  uint64
	Snapshot []byte // nil if no valid snapshot exists
	// Records is the replayed WAL tail: seqs SnapSeq+1 … Seq, contiguous.
	Records []Record
	// Seq is the state's sequence number after replay: SnapSeq + len(Records).
	Seq uint64
	// Torn reports that a torn or corrupt record tail was found and
	// truncated — the expected residue of a crash mid-append.
	Torn bool
}

// Store is one shard's write-ahead log and snapshot chain over a Sink.
//
// Append, Checkpoint and Close are not safe for concurrent use; the owning
// shard serializes them under its lock. Sync is the exception: any
// goroutine may call it at any time, without the owner's lock, so an fsync
// never stalls the shard's appends. Lock order: owner's lock → flushMu,
// and nothing that holds flushMu waits for the owner's lock.
type Store struct {
	sink Sink
	opts Options
	seq  atomic.Uint64 // last appended (or recovered) record; advanced by the owner
	buf  []byte        // framing scratch, reused per append
	err  error         // sticky: after any write failure the stream position is untrusted

	// flushMu serializes every Sync this store issues — segment, snapshot,
	// directory — so one sink never sees two at once, and it is held across
	// a whole Checkpoint, so an out-of-lock Sync can neither fsync a
	// segment that rotation is closing nor run between the snapshot and
	// the rotation.
	flushMu sync.Mutex
	// seg is the current WAL segment. Append reads it under the owner's
	// lock and Sync under flushMu; Checkpoint and Close, which replace it,
	// hold both.
	seg File
	// synced is the durable watermark: every record up to it is on stable
	// storage, in a synced segment or under a synced snapshot. Advanced
	// under flushMu, read anywhere.
	synced atomic.Uint64
	// syncErr is the first failed segment fsync, sticky: after it the page
	// cache may have dropped what the fsync was for, so no later one may
	// claim those records durable. Guarded by flushMu.
	syncErr error
}

var errClosed = errors.New("durable: store closed")

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

func segName(start uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, start, segSuffix) }
func snapName(seq uint64) string  { return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix) }
func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Open scans the sink, reconstructs the recoverable state (newest valid
// snapshot plus the contiguous WAL records after it, truncating a torn
// tail), and opens a fresh segment at the recovered sequence so Append can
// continue. Unknown files are ignored; artifacts that cannot be reconciled
// (a record gap, valid records after a tear) yield ErrCorrupt.
func Open(sink Sink, opts Options) (*Store, *Recovered, error) {
	opts = opts.normalized()
	names, err := sink.List()
	if err != nil {
		return nil, nil, fmt.Errorf("durable: list: %w", err)
	}
	var snaps []uint64 // snapshot seqs, any order
	var segs []uint64  // segment starts
	for _, name := range names {
		if v, ok := parseName(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, v)
		} else if v, ok := parseName(name, segPrefix, segSuffix); ok {
			segs = append(segs, v)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] }) // newest first
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })    // oldest first

	rec := &Recovered{}
	// Newest snapshot that validates wins; a torn or corrupt snapshot is
	// skipped (its WAL, or an older snapshot's, still covers the state).
	for _, sseq := range snaps {
		data, err := sink.ReadAll(snapName(sseq))
		if err != nil {
			continue
		}
		seq, payload, n, err := decodeRecord(data, opts.MaxPayload)
		if err != nil || n != len(data) || seq != sseq {
			rec.Torn = true // a half-written checkpoint left behind
			continue
		}
		rec.SnapSeq, rec.Snapshot = sseq, payload
		break
	}

	cur := rec.SnapSeq
	torn := false
	for _, start := range segs {
		data, err := sink.ReadAll(segName(start))
		if err != nil {
			return nil, nil, fmt.Errorf("durable: read %s: %w", segName(start), err)
		}
		for len(data) > 0 {
			seq, payload, n, err := decodeRecord(data, opts.MaxPayload)
			if err != nil {
				// Tail damage: legal only as the final thing on disk. Any
				// valid record beyond the current sequence found after
				// this point turns it into ErrCorrupt below.
				torn = true
				break
			}
			data = data[n:]
			switch {
			case seq <= cur:
				// Superseded by the snapshot (or a duplicate segment
				// prefix): already part of the recovered state.
			case seq == cur+1 && !torn:
				rec.Records = append(rec.Records, Record{Seq: seq, Payload: payload})
				cur = seq
			case torn:
				return nil, nil, fmt.Errorf("%w: record %d follows a torn tail at %d", ErrCorrupt, seq, cur)
			default:
				return nil, nil, fmt.Errorf("%w: record gap %d -> %d", ErrCorrupt, cur, seq)
			}
		}
	}
	rec.Seq = cur
	rec.Torn = rec.Torn || torn

	s := &Store{sink: sink, opts: opts}
	s.seq.Store(cur)
	s.synced.Store(cur) // what recovery read is as durable as it will get
	// Open a fresh segment at the recovered sequence. If a file of that
	// name exists its contents are dead bytes (empty, fully torn, or
	// superseded — otherwise recovery would have advanced past cur), so
	// truncating is exactly the "recovery truncates torn tails" step.
	seg, err := sink.Create(segName(cur))
	if err != nil {
		return nil, nil, fmt.Errorf("durable: open segment: %w", err)
	}
	if err := sink.Sync(); err != nil {
		seg.Close()
		return nil, nil, fmt.Errorf("durable: sync dir: %w", err)
	}
	s.seg = seg
	return s, rec, nil
}

// Seq returns the sequence number of the last appended record.
func (s *Store) Seq() uint64 { return s.seq.Load() }

// Synced returns the durable watermark: the highest sequence number known
// to be on stable storage. Seq() > Synced() means the segment is dirty.
func (s *Store) Synced() uint64 { return s.synced.Load() }

// Err returns the sticky error, if any: after a failed write the stream
// position is untrusted and every further mutation fails with it.
func (s *Store) Err() error { return s.err }

// Append writes one record with the next sequence number, fsyncing when
// the store was opened with SyncEachAppend. On error the record must be
// assumed lost and the store is poisoned (Err): a torn append leaves bytes
// the next append must not follow.
func (s *Store) Append(payload []byte) (uint64, error) {
	seq := s.seq.Load()
	if s.err != nil {
		return seq, s.err
	}
	if len(payload) > s.opts.MaxPayload {
		return seq, fmt.Errorf("durable: record payload %d exceeds limit %d", len(payload), s.opts.MaxPayload)
	}
	s.buf = appendRecord(s.buf[:0], seq+1, payload)
	if _, err := s.seg.Write(s.buf); err != nil {
		s.err = err
		return seq, err
	}
	if s.opts.SyncEachAppend {
		s.flushMu.Lock()
		err := s.syncSegmentLocked(seq + 1)
		s.flushMu.Unlock()
		if err != nil {
			s.err = err
			return seq, err
		}
	}
	// Published only now: a concurrent Sync that loads the new value is
	// ordered after the Write above, so the fsync it issues covers it.
	s.seq.Store(seq + 1)
	return seq + 1, nil
}

// Sync makes every record appended before the call durable, and returns as
// soon as the durable watermark says so: at once when the segment is clean
// (an idle tick issues no fsync), after the fsync or checkpoint already in
// flight when that one turns out to cover the caller's records, and
// otherwise after one fsync of its own — which covers everything appended
// by the time it starts, so waiters queued behind it share it. It is safe
// to call from any goroutine, concurrently with Append: the fsync runs
// without the owner's lock, and on the File it may overlap a Write (see
// File). A failed fsync is sticky and is returned to every later caller.
func (s *Store) Sync() error {
	target := s.seq.Load()
	if s.synced.Load() >= target {
		return nil
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	if s.synced.Load() >= target {
		return nil
	}
	return s.syncSegmentLocked(s.seq.Load())
}

// syncSegmentLocked fsyncs the current segment and advances the durable
// watermark to upto, which the caller read before the call; flushMu held.
func (s *Store) syncSegmentLocked(upto uint64) error {
	if s.syncErr != nil {
		return s.syncErr
	}
	if s.seg == nil {
		return errClosed
	}
	if err := s.seg.Sync(); err != nil {
		s.syncErr = err
		return err
	}
	s.synced.Store(upto)
	return nil
}

// Checkpoint seals the caller's snapshot of the state after the last
// appended record, rotates to a fresh WAL segment, and prunes everything
// the snapshot supersedes. The snapshot is fsynced (and the directory with
// it) before any old artifact is removed, so a crash at any point leaves
// either the old chain, the new chain, or both — never neither
// (TestCheckpointNeverRemovesBeforeSnapshotSync pins the ordering).
//
// flushMu is held throughout, so a concurrent Sync waits the checkpoint
// out instead of racing the rotation; once the snapshot and its directory
// entry are synced the durable watermark covers every record it seals, and
// that Sync returns without an fsync of its own.
func (s *Store) Checkpoint(snapshot []byte) error {
	if s.err != nil {
		return s.err
	}
	if len(snapshot) > s.opts.MaxPayload {
		return fmt.Errorf("durable: snapshot payload %d exceeds limit %d", len(snapshot), s.opts.MaxPayload)
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	seq := s.seq.Load()
	fail := func(err error) error {
		s.err = err
		return err
	}
	if s.syncErr != nil {
		return fail(s.syncErr)
	}
	snap, err := s.sink.Create(snapName(seq))
	if err != nil {
		return fail(fmt.Errorf("durable: create snapshot: %w", err))
	}
	s.buf = appendRecord(s.buf[:0], seq, snapshot)
	if _, err := snap.Write(s.buf); err != nil {
		snap.Close()
		return fail(fmt.Errorf("durable: write snapshot: %w", err))
	}
	if err := snap.Sync(); err != nil {
		snap.Close()
		return fail(fmt.Errorf("durable: sync snapshot: %w", err))
	}
	if err := snap.Close(); err != nil {
		return fail(fmt.Errorf("durable: close snapshot: %w", err))
	}
	if err := s.sink.Sync(); err != nil {
		return fail(fmt.Errorf("durable: sync dir: %w", err))
	}
	// The new chain is durable; rotate, then prune the superseded one.
	s.synced.Store(seq)
	if err := s.seg.Close(); err != nil {
		return fail(fmt.Errorf("durable: close segment: %w", err))
	}
	seg, err := s.sink.Create(segName(seq))
	if err != nil {
		return fail(fmt.Errorf("durable: rotate segment: %w", err))
	}
	s.seg = seg
	names, err := s.sink.List()
	if err != nil {
		return fail(fmt.Errorf("durable: list for prune: %w", err))
	}
	for _, name := range names {
		if v, ok := parseName(name, segPrefix, segSuffix); ok && v < seq {
			if err := s.sink.Remove(name); err != nil {
				return fail(fmt.Errorf("durable: prune %s: %w", name, err))
			}
		} else if v, ok := parseName(name, snapPrefix, snapSuffix); ok && v < seq {
			if err := s.sink.Remove(name); err != nil {
				return fail(fmt.Errorf("durable: prune %s: %w", name, err))
			}
		}
	}
	if err := s.sink.Sync(); err != nil {
		return fail(fmt.Errorf("durable: sync dir: %w", err))
	}
	return nil
}

// Close releases the current segment handle without syncing (callers that
// need durability checkpoint or Sync first).
func (s *Store) Close() error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	if s.seg == nil {
		return nil
	}
	err := s.seg.Close()
	s.seg = nil
	if s.err == nil {
		s.err = errClosed
		return err
	}
	return nil
}
