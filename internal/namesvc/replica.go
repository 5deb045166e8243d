package namesvc

import (
	"fmt"

	"ballsintoleaves/internal/wire"
)

// Replica surface: the hooks internal/namesvc/repl uses to keep follower
// Services byte-identical to a leader's. The unit of replication is the
// sealed WAL record (durability.go) — the leader taps them at the source
// via SetRecordHook, and followers apply them here through replayLocked,
// the replay-and-prove step recovery runs, then log them through the same
// append step the leader's own records take. Snapshot catch-up installs
// through recovery's installSnapshotLocked. So a replica's ledger, digest,
// and journal are the leader's or the apply fails loudly.
//
// Positions order the stream without any extra metadata: every record
// carries ≥1 event and seals the shard's cumulative (assigns + releases)
// after it, so that count is a strictly increasing per-shard sequence
// number — recoverable from local state alone after any restart.

// ShardPosition returns a shard's replication position: its cumulative
// assigned + released event count.
func (s *Service) ShardPosition(shardIdx int) uint64 {
	sh := s.shards[shardIdx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.led.assigns + sh.led.releases
}

// Positions appends every shard's replication position to dst (which may
// be nil) and returns it.
func (s *Service) Positions(dst []uint64) []uint64 {
	for i := range s.shards {
		dst = append(dst, s.ShardPosition(i))
	}
	return dst
}

// Position returns the service-wide replication position: the sum of the
// per-shard positions. Within one leader's production it is strictly
// increasing record over record, so (term of last record, Position) is
// the election freshness order.
func (s *Service) Position() uint64 {
	var sum uint64
	for i := range s.shards {
		sum += s.ShardPosition(i)
	}
	return sum
}

// ShardSnapshotPayload seals a snapshot of the shard's current full state
// — the catch-up payload RestoreReplicaShard accepts on a replica. The
// returned buffer is freshly allocated (snapshots are rare).
func (s *Service) ShardSnapshotPayload(shardIdx int) []byte {
	sh := s.shards[shardIdx]
	var w wire.Writer
	sh.mu.Lock()
	appendWALSnapshot(&w, shardIdx, sh.sealLocked(), sh.led.holder, sh.led.journalWindow())
	sh.mu.Unlock()
	return w.Bytes()
}

// ApplyReplicated applies one sealed record payload (as observed by a
// leader's record hook) to a replica shard. It returns (false, nil) for a
// record the shard already covers (positions at or below the current one
// — normal after a snapshot overshoots the stream), (true, nil) after
// applying and re-proving the seal, and an error for a position gap,
// corrupt payload, seal divergence, or a failed shard (one that refused the
// record or failed to log it). After an error other than a failure the
// replica needs a snapshot resync; the shard may hold partially applied
// state until RestoreReplicaShard overwrites it.
//
// The record is also appended to the shard's own durable store, so a
// replica's WAL chain is the byte-for-byte record stream it acknowledged
// and a restart recovers it like any single node.
func (s *Service) ApplyReplicated(shardIdx int, payload []byte) (bool, error) {
	if shardIdx < 0 || shardIdx >= len(s.shards) {
		return false, fmt.Errorf("namesvc: shard %d outside 0..%d", shardIdx, len(s.shards)-1)
	}
	seal, entries, err := decodeWALRecord(payload, shardIdx)
	if err != nil {
		return false, err
	}
	if len(entries) == 0 {
		return false, fmt.Errorf("namesvc: shard %d: replicated record with no events", shardIdx)
	}
	pos := seal.assigns + seal.releases
	sh := s.shards[shardIdx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.refusal(); err != nil {
		return false, err
	}
	cur := sh.led.assigns + sh.led.releases
	if pos <= cur {
		return false, nil
	}
	if pos-uint64(len(entries)) != cur {
		return false, fmt.Errorf("namesvc: shard %d: record spans positions %d..%d, replica at %d",
			shardIdx, pos-uint64(len(entries)), pos, cur)
	}
	// Replay with staging off: the record is already sealed, and re-staging
	// it would log it twice.
	staged := sh.led.staging
	sh.led.staging = false
	err = sh.replayLocked(seal, entries)
	sh.led.staging = staged
	if err != nil {
		return false, fmt.Errorf("namesvc: shard %d: replicated record: %w", shardIdx, err)
	}
	if sh.queued == 0 {
		// A deposed leader's cancelled husks may carry IDs above the sealed
		// counter; drop them so the queue stays in ascending ID order.
		sh.recycleHusksLocked()
	}
	if sh.dur != nil {
		s.appendRecordLocked(shardIdx, sh, payload, nil)
	}
	return true, sh.refusal()
}

// recycleHusksLocked empties a queue that holds nothing live (sh.queued ==
// 0: cancelled husks, or a failed shard's dropped requests), returning the
// structs to the pool; sh.mu must be held.
func (sh *shard) recycleHusksLocked() {
	for _, r := range sh.pending {
		r.sink = nil
		sh.freeReq = append(sh.freeReq, r)
	}
	sh.pending = sh.pending[:0]
}

// RestoreReplicaShard overwrites a replica shard with a leader snapshot
// payload (ShardSnapshotPayload) — catch-up for a fresh or diverged
// replica. The shard must have no queued requests (on a deposed leader,
// disconnect all clients first so teardown cancels them). The local
// durable chain is checkpointed onto the snapshot, physically pruning any
// divergent tail, so a restart recovers the restored state. A failed shard
// refuses the restore, and one whose checkpoint fails returns the failure.
func (s *Service) RestoreReplicaShard(shardIdx int, payload []byte) error {
	if shardIdx < 0 || shardIdx >= len(s.shards) {
		return fmt.Errorf("namesvc: shard %d outside 0..%d", shardIdx, len(s.shards)-1)
	}
	sh := s.shards[shardIdx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.refusal(); err != nil {
		return err
	}
	if sh.queued > 0 {
		return fmt.Errorf("namesvc: shard %d: %d requests queued during replica restore", shardIdx, sh.queued)
	}
	if err := s.installSnapshotLocked(shardIdx, sh, payload); err != nil {
		return fmt.Errorf("namesvc: shard %d: replica restore: %w", shardIdx, err)
	}
	sh.recycleHusksLocked()
	if d := sh.dur; d != nil {
		if err := d.store.Checkpoint(payload); err != nil {
			d.fail(shardIdx, err)
		} else {
			d.sinceSnap = 0
			d.snapshots++
		}
	}
	return sh.refusal()
}
