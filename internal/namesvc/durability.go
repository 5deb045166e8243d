package namesvc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ballsintoleaves/internal/namesvc/durable"
	"ballsintoleaves/internal/wire"
)

// Durability: the service's ledgers, digests, and request-ID counters are
// persisted through internal/namesvc/durable — one write-ahead log and
// snapshot chain per shard. Every mutation batch that touches a ledger
// (one CloseEpoch, one Release, one ReleaseBatch) seals exactly one WAL
// record: the batch's assign/release events plus the shard state they
// produce (epoch, request-ID counter, rolling digest, event counters).
// Recovery loads the newest valid snapshot, replays the WAL tail through
// the ordinary ledger operations, and proves the rebuilt shard honest by
// recomputing the rolling digest and matching it against the digest sealed
// in every record — a replay that diverges by a single event cannot
// produce the sealed FNV chain. Each step has one copy that recovery and
// replicas (replica.go) share: installSnapshotLocked installs a snapshot,
// replayLocked replays and proves a record, and appendRecordLocked appends
// a sealed record to the shard's store.
//
// Failure policy: a shard fails closed. Its first WAL append, checkpoint
// or fsync error (disk full, injected crash) is its sticky failure: every
// later write on it is refused with an error wrapping it, and so is the
// epoch, replicated record or restore whose own write failed; every commit
// wait returns it, so grants it may not have logged are never delivered
// (after a power cut they would be granted again). A release whose record
// failed still succeeds: the record has reached the replication hook, and
// a lost release only leaks its name.

// FsyncMode selects when WAL records reach stable storage. Both modes
// make a grant durable before any client can observe it; a mode that
// acknowledged first (no fsync, or one on a timer) would let a power cut
// forget a name its holder still holds, and the next epoch would grant it
// again.
type FsyncMode int

const (
	// FsyncPerEpoch fsyncs after every WAL record — every CloseEpoch and
	// every release batch — inline, before the shard lock is released.
	FsyncPerEpoch FsyncMode = iota
	// FsyncGroup is group commit: appends do not sync, and a grant is
	// delivered only after a flush covering its record completes
	// (Service.SyncShard). One fsync absorbs every record its shard
	// appended before it began, so the epochs closed while the previous
	// flush was in flight share the next one, and different shards'
	// flushes overlap. A Server over such a service waits on it by itself
	// (see ServerConfig.Gate); a replication node's commit wait includes it.
	FsyncGroup
)

// String implements fmt.Stringer.
func (m FsyncMode) String() string {
	switch m {
	case FsyncPerEpoch:
		return "epoch"
	case FsyncGroup:
		return "group"
	default:
		return fmt.Sprintf("FsyncMode(%d)", int(m))
	}
}

// AutoJournalLimit is the journal cap Open applies when durability is
// enabled and Config.JournalLimit asks for an unbounded journal: with a
// WAL on disk as the complete audit trail, an unbounded in-memory journal
// is pure memory growth, so the footgun is defused automatically.
const AutoJournalLimit = 1 << 20

// Durability configures persistence for a Service; see Config.Durable.
type Durability struct {
	// Sinks holds one storage directory per shard (durable.ShardSinks for
	// the on-disk layout, durable.MemSink for tests). Required; its length
	// must equal the (normalized) shard count.
	Sinks []durable.Sink
	// Fsync selects the durability/throughput trade; see FsyncMode.
	Fsync FsyncMode
	// SnapshotEvery checkpoints a shard after this many WAL records,
	// bounding recovery replay and WAL disk growth. Zero means 4096.
	SnapshotEvery int
	// Logf, when non-nil, receives durability log lines (recovery summary,
	// the failure that makes a shard refuse writes).
	Logf func(format string, args ...any)
}

func (d *Durability) normalized(shards int) (*Durability, error) {
	if len(d.Sinks) != shards {
		return nil, fmt.Errorf("namesvc: %d durability sinks for %d shards", len(d.Sinks), shards)
	}
	if d.Fsync != FsyncPerEpoch && d.Fsync != FsyncGroup {
		return nil, fmt.Errorf("namesvc: unknown fsync mode %v", d.Fsync)
	}
	nd := *d
	if nd.SnapshotEvery <= 0 {
		nd.SnapshotEvery = 4096
	}
	if nd.Logf == nil {
		nd.Logf = func(string, ...any) {}
	}
	return &nd, nil
}

// shardWAL is one shard's durability state, guarded by the shard lock —
// except store.Sync and err, which flushes use without it (see syncShard).
type shardWAL struct {
	store     *durable.Store
	w         wire.Writer // record/snapshot encode scratch
	snapEvery int
	sinceSnap int
	logf      func(format string, args ...any)
	err       atomic.Pointer[error] // sticky first failure: the shard refuses writes
	records   uint64
	snapshots uint64
}

// fail records the shard's first durability failure and logs it.
func (d *shardWAL) fail(shardIdx int, err error) {
	refused := fmt.Errorf("namesvc: shard %d refuses writes: %w", shardIdx, err)
	if d.err.CompareAndSwap(nil, &refused) {
		d.logf("shard %d: durability failed, refusing writes from here on: %v", shardIdx, err)
	}
}

// refusal is the shard's sticky failure, the error every write on it
// returns; nil while the shard logs, and always on a volatile service. It
// takes no lock.
func (sh *shard) refusal() error {
	if sh.dur == nil {
		return nil
	}
	if p := sh.dur.err.Load(); p != nil {
		return *p
	}
	return nil
}

// WAL payload format (inside durable's CRC framing). A record seals the
// shard state its events produce; a snapshot seals the whole state. The
// shard index is embedded so a sink mounted under the wrong shard is an
// error, not a silently scrambled namespace.
const (
	walRecordMagic   byte = 'R'
	walSnapshotMagic byte = 'S'
	walFormatVersion      = 1
)

// walSeal is the per-shard state sealed into every record and snapshot.
type walSeal struct {
	epoch    uint64
	nextID   uint64
	digest   uint64
	acquires uint64
	assigns  uint64
	releases uint64
	absorbed uint64
}

// sealLocked captures the shard's current sealed state; sh.mu held.
func (sh *shard) sealLocked() walSeal {
	return walSeal{
		epoch:    sh.led.epoch,
		nextID:   sh.nextID,
		digest:   sh.led.digest,
		acquires: sh.acquires,
		assigns:  sh.led.assigns,
		releases: sh.led.releases,
		absorbed: sh.absorbed,
	}
}

func appendSeal(w *wire.Writer, seal walSeal) {
	w.Uvarint(seal.epoch)
	w.Uvarint(seal.nextID)
	w.Uvarint(seal.digest)
	w.Uvarint(seal.acquires)
	w.Uvarint(seal.assigns)
	w.Uvarint(seal.releases)
	w.Uvarint(seal.absorbed)
}

func readSeal(r *wire.Reader) walSeal {
	return walSeal{
		epoch:    r.Uvarint(),
		nextID:   r.Uvarint(),
		digest:   r.Uvarint(),
		acquires: r.Uvarint(),
		assigns:  r.Uvarint(),
		releases: r.Uvarint(),
		absorbed: r.Uvarint(),
	}
}

func appendEntries(w *wire.Writer, entries []Entry) {
	w.Uvarint(uint64(len(entries)))
	for _, e := range entries {
		w.Uvarint(e.Epoch)
		w.Byte(byte(e.Op))
		w.Uvarint(e.Client)
		w.Uvarint(e.ReqID)
		w.Uvarint(uint64(e.Name))
	}
}

// readEntries decodes an entry list, bounded by what the payload could
// physically hold so a corrupt count cannot force a huge allocation.
func readEntries(r *wire.Reader) ([]Entry, error) {
	n := r.Uvarint()
	if r.Err() == nil && n > uint64(r.Remaining()/5+1) {
		return nil, fmt.Errorf("%w: %d entries in %d bytes", wire.ErrTruncated, n, r.Remaining())
	}
	entries := make([]Entry, 0, n)
	for i := uint64(0); i < n; i++ {
		e := Entry{
			Epoch:  r.Uvarint(),
			Op:     EntryOp(r.Byte()),
			Client: r.Uvarint(),
			ReqID:  r.Uvarint(),
			Name:   int(r.Uvarint()),
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		entries = append(entries, e)
	}
	return entries, nil
}

// appendWALRecord encodes one record payload: header, sealed state, the
// batch's events.
func appendWALRecord(w *wire.Writer, shardIdx int, seal walSeal, entries []Entry) {
	w.Byte(walRecordMagic)
	w.Uvarint(walFormatVersion)
	w.Uvarint(uint64(shardIdx))
	appendSeal(w, seal)
	appendEntries(w, entries)
}

// decodeWALRecord decodes and validates a record payload for a shard.
func decodeWALRecord(payload []byte, shardIdx int) (walSeal, []Entry, error) {
	r := wire.NewReader(payload)
	if m := r.Byte(); r.Err() == nil && m != walRecordMagic {
		return walSeal{}, nil, fmt.Errorf("namesvc: WAL record magic %#x", m)
	}
	if v := r.Uvarint(); r.Err() == nil && v != walFormatVersion {
		return walSeal{}, nil, fmt.Errorf("namesvc: WAL record format %d, want %d", v, walFormatVersion)
	}
	if sh := r.Uvarint(); r.Err() == nil && sh != uint64(shardIdx) {
		return walSeal{}, nil, fmt.Errorf("namesvc: WAL record for shard %d mounted under shard %d", sh, shardIdx)
	}
	seal := readSeal(r)
	entries, err := readEntries(r)
	if err != nil {
		return walSeal{}, nil, err
	}
	if err := r.Close(); err != nil {
		return walSeal{}, nil, err
	}
	return seal, entries, nil
}

// appendWALSnapshot encodes one snapshot payload: header, sealed state,
// the holder array (0 = free), and the retained journal window.
func appendWALSnapshot(w *wire.Writer, shardIdx int, seal walSeal, holder []uint64, win []Entry) {
	w.Byte(walSnapshotMagic)
	w.Uvarint(walFormatVersion)
	w.Uvarint(uint64(shardIdx))
	appendSeal(w, seal)
	w.Uvarint(uint64(len(holder)))
	for _, h := range holder {
		w.Uvarint(h)
	}
	appendEntries(w, win)
}

// decodeWALSnapshot decodes and validates a snapshot payload for a shard.
func decodeWALSnapshot(payload []byte, shardIdx int) (walSeal, []uint64, []Entry, error) {
	r := wire.NewReader(payload)
	if m := r.Byte(); r.Err() == nil && m != walSnapshotMagic {
		return walSeal{}, nil, nil, fmt.Errorf("namesvc: WAL snapshot magic %#x", m)
	}
	if v := r.Uvarint(); r.Err() == nil && v != walFormatVersion {
		return walSeal{}, nil, nil, fmt.Errorf("namesvc: WAL snapshot format %d, want %d", v, walFormatVersion)
	}
	if sh := r.Uvarint(); r.Err() == nil && sh != uint64(shardIdx) {
		return walSeal{}, nil, nil, fmt.Errorf("namesvc: WAL snapshot for shard %d mounted under shard %d", sh, shardIdx)
	}
	seal := readSeal(r)
	n := r.Uvarint()
	if r.Err() == nil && n > uint64(r.Remaining()+1) {
		return walSeal{}, nil, nil, fmt.Errorf("%w: %d holders in %d bytes", wire.ErrTruncated, n, r.Remaining())
	}
	holder := make([]uint64, 0, n)
	for i := uint64(0); i < n; i++ {
		holder = append(holder, r.Uvarint())
	}
	win, err := readEntries(r)
	if err != nil {
		return walSeal{}, nil, nil, err
	}
	if err := r.Close(); err != nil {
		return walSeal{}, nil, nil, err
	}
	return seal, holder, win, nil
}

// flushWALLocked drains the ledger's staged events into one WAL record
// sealing the shard's current state (see appendRecordLocked); sh.mu must be
// held. With nothing staged (or durability off) it is a no-op.
func (s *Service) flushWALLocked(shardIdx int, sh *shard) {
	d := sh.dur
	if d == nil {
		return
	}
	entries := sh.led.takeStage()
	if len(entries) == 0 {
		return
	}
	d.w.Reset()
	appendWALRecord(&d.w, shardIdx, sh.sealLocked(), entries)
	s.appendRecordLocked(shardIdx, sh, d.w.Bytes(), s.onRecord)
}

// appendRecordLocked is the one append step for a sealed record payload,
// produced here or replicated: it appends the payload to the shard's store
// and counts it, hands it to hook (when non-nil), and checkpoints when the
// snapshot cadence is due; sh.mu must be held and sh.dur set. The hook
// (replication) sees the record before a checkpoint reuses the encode
// scratch the payload may alias; it must copy.
func (s *Service) appendRecordLocked(shardIdx int, sh *shard, payload []byte, hook func(int, []byte)) {
	d := sh.dur
	if _, err := d.store.Append(payload); err != nil {
		d.fail(shardIdx, err)
	} else {
		d.records++
		d.sinceSnap++
	}
	if hook != nil {
		hook(shardIdx, payload)
	}
	if d.sinceSnap >= d.snapEvery {
		s.checkpointLocked(shardIdx, sh)
	}
}

// checkpointLocked seals a snapshot of the shard's full state and rotates
// its WAL; sh.mu must be held.
func (s *Service) checkpointLocked(shardIdx int, sh *shard) {
	d := sh.dur
	if d == nil || d.err.Load() != nil {
		return
	}
	d.w.Reset()
	appendWALSnapshot(&d.w, shardIdx, sh.sealLocked(), sh.led.holder, sh.led.journalWindow())
	if err := d.store.Checkpoint(d.w.Bytes()); err != nil {
		d.fail(shardIdx, err)
		return
	}
	d.sinceSnap = 0
	d.snapshots++
}

// recoverShard rebuilds one shard from its sink: newest valid snapshot,
// then the WAL tail replayed and proven record by record (replayLocked).
// On success the shard's store is open for appends and a fresh boot
// checkpoint has physically truncated any torn tail. It runs inside Open,
// before the shard is shared, so it takes no lock.
func (s *Service) recoverShard(shardIdx int, sh *shard, dcfg *Durability) error {
	store, rec, err := durable.Open(dcfg.Sinks[shardIdx], durable.Options{
		SyncEachAppend: dcfg.Fsync == FsyncPerEpoch,
	})
	if err != nil {
		return fmt.Errorf("namesvc: shard %d: %w", shardIdx, err)
	}
	if rec.Snapshot != nil {
		if err := s.installSnapshotLocked(shardIdx, sh, rec.Snapshot); err != nil {
			return fmt.Errorf("namesvc: shard %d: snapshot %d: %w", shardIdx, rec.SnapSeq, err)
		}
	}
	for _, r := range rec.Records {
		seal, entries, err := decodeWALRecord(r.Payload, shardIdx)
		if err == nil {
			err = sh.replayLocked(seal, entries)
		}
		if err != nil {
			return fmt.Errorf("namesvc: shard %d: record %d: %w", shardIdx, r.Seq, err)
		}
	}
	sh.dur = &shardWAL{
		store:     store,
		snapEvery: dcfg.SnapshotEvery,
		logf:      dcfg.Logf,
	}
	sh.led.staging = true
	if rec.Seq > 0 || rec.Torn {
		dcfg.Logf("shard %d: recovered epoch %d, %d assigned, digest %016x (snapshot %d + %d records%s)",
			shardIdx, sh.led.epoch, sh.led.cap-sh.led.freeCount(), sh.led.digest,
			rec.SnapSeq, len(rec.Records), tornNote(rec.Torn))
		// Boot checkpoint: fold the replayed tail into a fresh snapshot so
		// torn bytes are physically gone and the next recovery is O(snapshot).
		s.checkpointLocked(shardIdx, sh)
		if err := sh.refusal(); err != nil {
			return fmt.Errorf("namesvc: shard %d: boot checkpoint: %w", shardIdx, err)
		}
	}
	return nil
}

// installSnapshotLocked replaces the shard's ledger and counters with the
// state a snapshot payload seals: a fresh ledger restored from its holders,
// digest, event counters and journal window, keeping the shard's staging
// mode. Recovery and replica catch-up both install snapshots through it;
// sh.mu must be held.
func (s *Service) installSnapshotLocked(shardIdx int, sh *shard, payload []byte) error {
	seal, holder, win, err := decodeWALSnapshot(payload, shardIdx)
	if err != nil {
		return err
	}
	led := newLedger(s.cfg.ShardCap, s.cfg.Journal, s.cfg.JournalLimit)
	if err := led.restore(seal.epoch, holder, seal.digest, seal.assigns, seal.releases, win); err != nil {
		return err
	}
	led.staging = sh.led.staging
	sh.led = led
	sh.nextID = seal.nextID
	sh.acquires = seal.acquires
	sh.absorbed = seal.absorbed
	return nil
}

// replayLocked is the one replay-and-prove step, shared by recovery and
// follower apply: it applies a sealed record's events through the ordinary
// ledger operations, adopts the counters the seal carries, and proves the
// rebuilt ledger arrived at exactly the digest and event counters the live
// shard sealed when it wrote the record — a replay that diverges by a
// single event cannot produce the sealed FNV chain. sh.mu must be held and
// staging off, so the replayed events are not logged a second time.
func (sh *shard) replayLocked(seal walSeal, entries []Entry) error {
	for _, e := range entries {
		switch e.Op {
		case OpAssign:
			if e.Name < 1 || e.Name > sh.led.cap || sh.led.holderOf(e.Name) != 0 {
				return fmt.Errorf("assigns unassignable name %d", e.Name)
			}
			sh.led.assign(e.Epoch, e.ReqID, e.Client, e.Name)
		case OpRelease:
			if err := sh.led.release(e.Epoch, e.Client, e.Name); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown op %d", e.Op)
		}
	}
	sh.led.epoch = seal.epoch
	sh.nextID = seal.nextID
	sh.acquires = seal.acquires
	sh.absorbed = seal.absorbed
	if sh.led.digest != seal.digest {
		return fmt.Errorf("replayed digest %016x != sealed %016x", sh.led.digest, seal.digest)
	}
	if sh.led.assigns != seal.assigns || sh.led.releases != seal.releases {
		return fmt.Errorf("replayed counters (%d assigns, %d releases) != sealed (%d, %d)",
			sh.led.assigns, sh.led.releases, seal.assigns, seal.releases)
	}
	return nil
}

func tornNote(torn bool) string {
	if torn {
		return ", torn tail truncated"
	}
	return ""
}

// syncShard is the one flush routine: it makes every record the shard
// appended before the call durable. Under FsyncPerEpoch every append has
// already synced, so the watermark covers the segment and it returns at
// once; under FsyncGroup it is the commit gates' wait. It takes no shard
// lock: the fsync runs outside it (durable.Store.Sync), so the shard keeps
// taking acquires, releases and epoch closes — and appending the records
// the *next* flush will cover — while this one is on the disk. A clean
// segment costs no fsync. A failed shard returns its sticky failure before
// the watermark is read, since the append that failed never advanced it;
// a failed fsync becomes the shard's failure and is returned.
func (s *Service) syncShard(shardIdx int) error {
	// sh.dur is fixed once Open returns; its failure and the store's
	// counters are atomic.
	sh := s.shards[shardIdx]
	d := sh.dur
	if d == nil {
		return nil
	}
	if err := sh.refusal(); err != nil {
		return err
	}
	if d.store.Synced() >= d.store.Seq() {
		return nil
	}
	if err := d.store.Sync(); err != nil {
		d.fail(shardIdx, err)
		return sh.refusal()
	}
	return nil
}

// SyncWAL makes every record appended so far, on every shard, durable: the
// follower's apply→sync→acknowledge step, and the clock of an embedder that
// wants one. Shards with nothing new are skipped unless they have failed;
// the rest flush concurrently, each on its own sink (see syncShard), so the
// pass costs one flush time, not one per shard. The caller flushes one of
// them itself: with every core's worth of threads parked in fsyncs, being
// woken by a helper goroutine costs a scheduling round the follower's
// acknowledgement would wait out (measured: more than half of repl3-closed's
// throughput). It returns the lowest-numbered failed shard's error. Passes
// are serialized on the pass's scratch — a second caller's records are
// covered by a pass that starts after it arrived, which is the one it runs
// itself.
func (s *Service) SyncWAL() error {
	s.walSync.mu.Lock()
	defer s.walSync.mu.Unlock()
	dirty := s.walSync.dirty[:0]
	for i, sh := range s.shards {
		if d := sh.dur; d != nil && (d.store.Seq() > d.store.Synced() || d.err.Load() != nil) {
			dirty = append(dirty, i)
		}
	}
	s.walSync.dirty = dirty
	if len(dirty) == 0 {
		return nil
	}
	errs := s.walSync.errs[:0]
	for range dirty {
		errs = append(errs, nil)
	}
	s.walSync.errs = errs
	var wg sync.WaitGroup
	for k, i := range dirty[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k+1] = s.syncShard(i)
		}()
	}
	errs[0] = s.syncShard(dirty[0])
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SyncShard blocks until every WAL record the shard appended before the
// call is durable — at once when a flush has already covered them (always,
// under FsyncPerEpoch), after the flush in flight when that one captured
// them, otherwise after one more. Delivery gates wait on it per shard, so a
// shard's grants never wait for another shard's disk; a server may hold a
// shard's next flush, for at most half of its last commit wait, until a
// connection it shares with another shard has heard from both. A failed shard
// returns its sticky failure (see the failure policy above).
func (s *Service) SyncShard(shardIdx int) error {
	if shardIdx < 0 || shardIdx >= len(s.shards) {
		return fmt.Errorf("namesvc: shard %d outside 0..%d", shardIdx, len(s.shards)-1)
	}
	return s.syncShard(shardIdx)
}

// Checkpoint forces a snapshot + WAL rotation on every shard, returning
// the first failed shard's durability error, if any. Volatile
// services return nil. Close checkpoints too: that is how blnamed's SIGTERM
// drain makes a clean restart recover from a snapshot, not a replay.
func (s *Service) Checkpoint() error {
	var first error
	for i, sh := range s.shards {
		sh.mu.Lock()
		s.flushWALLocked(i, sh) // drain any staged events first
		s.checkpointLocked(i, sh)
		if err := sh.refusal(); err != nil && first == nil {
			first = err
		}
		sh.mu.Unlock()
	}
	return first
}

// Close checkpoints every durable shard and releases the stores, returning
// Checkpoint's error. Safe to call on volatile services (no-op) and more
// than once. The Service must be quiescent: no concurrent Acquire, Release,
// or CloseEpoch (a Server must be Closed first).
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		s.closeErr = s.Checkpoint()
		for _, sh := range s.shards {
			if sh.dur != nil {
				sh.mu.Lock()
				sh.dur.store.Close()
				sh.mu.Unlock()
			}
		}
	})
	return s.closeErr
}
