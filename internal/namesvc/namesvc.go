// Package namesvc is the long-lived name-allocation service layer: it turns
// the repository's one-shot renaming machinery into a system that serves
// continuous acquire/release traffic.
//
// One-shot renaming (the paper's problem) assigns each of n processes a
// unique name in 1..n once. A long-lived service instead sees clients arrive
// over time, hold a name for a while, and release it for reuse — the regime
// of the long-lived/adaptive renaming literature. namesvc bridges the two by
// *epoch batching*:
//
//   - Arriving acquire requests queue per shard.
//   - Closing an epoch snapshots the batch, runs one renaming instance over
//     it (the fast in-process core.Cohort; the tests pin it equal to the
//     public Protocol over internal/transport), and maps the decided ranks
//     onto the k smallest free names of the shard's namespace.
//   - Releases return names to the free pool immediately; a released name
//     can be re-granted by any later epoch, and never before.
//
// The namespace is partitioned into Shards independent ledgers of ShardCap
// names each, with a deterministic client → shard router, so epochs on
// different shards run concurrently and throughput scales with shards.
// Ingestion is batched to match: AcquireBatch and ReleaseBatch submit a
// whole bucket of decoded operations to one shard under a single lock
// acquisition, and per-shard request-ID sequences make batched submission
// byte-identical — grants, digests, journals — to one-at-a-time submission
// of the same per-shard order (TestBatchedSubmissionMatchesPerOp).
//
// Every grant and release is folded into a per-shard rolling digest (and an
// optional full journal), making executions auditable and replayable: a
// fixed (seed, arrival trace, shards) reproduces an identical assignment
// ledger on any instance, which the determinism tests pin.
//
// The Service is the deterministic core; Server/Client (server.go,
// client.go) put it on real sockets behind cmd/blnamed, and cmd/blload
// drives it with load.
package namesvc

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/rng"
)

// shardSalt decorrelates the shard router from every other use of the seed.
const shardSalt = 0x5a4d5e5fca11ab1e

// Config parameterizes a Service.
type Config struct {
	// Shards is the number of independent namespaces; zero means 1.
	Shards int
	// ShardCap is the number of names per shard; required. The service's
	// namespace is 1..Shards*ShardCap.
	ShardCap int
	// Seed drives every epoch's renaming randomness. Executions are pure
	// functions of (Seed, arrival trace, Shards, ShardCap, Runner).
	Seed uint64
	// Runner executes one renaming instance per epoch; nil means
	// CohortRunner{} (in-process fast path).
	Runner Runner
	// MaxBatch caps the number of requests assigned per epoch; zero means
	// ShardCap. Batches are additionally capped by the shard's free names.
	MaxBatch int
	// Journal records the per-shard assignment journal (tests, audit).
	// The rolling digest is always maintained regardless.
	Journal bool
	// JournalLimit, when positive, caps the retained journal at the most
	// recent JournalLimit entries per shard, so long-lived journaling
	// daemons hold bounded memory. The trade-off: the rolling digest still
	// covers the complete history (divergence detection stays exact), but
	// entries older than the window cannot be replayed or audited — a
	// capped journal answers "what happened recently", not "everything
	// that ever happened". Zero retains every entry, which grows without
	// bound and is meant for bounded runs only — with Durable set it is
	// auto-capped at AutoJournalLimit (the WAL is the full audit trail).
	JournalLimit int
	// Durable, when non-nil, persists every shard through a write-ahead
	// log and snapshot chain; Open recovers the prior state from the
	// configured sinks before serving. See Durability.
	Durable *Durability
}

// normalized returns the config with defaults applied.
func (c Config) normalized() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.MaxBatch <= 0 || c.MaxBatch > c.ShardCap {
		c.MaxBatch = c.ShardCap
	}
	if c.Runner == nil {
		c.Runner = CohortRunner{}
	}
	return c
}

// validate reports configuration errors.
func (c Config) validate() error {
	if c.ShardCap < 1 {
		return fmt.Errorf("namesvc: ShardCap must be >= 1, got %d", c.ShardCap)
	}
	if c.Shards < 0 {
		return fmt.Errorf("namesvc: Shards must be >= 0, got %d", c.Shards)
	}
	shards := c.Shards
	if shards == 0 {
		shards = 1
	}
	if uint64(shards)*uint64(c.ShardCap) > 1<<31 {
		return fmt.Errorf("namesvc: namespace %d x %d exceeds 2^31 names", shards, c.ShardCap)
	}
	return nil
}

// Grant is one completed acquire: the request was assigned Name (global, in
// 1..Shards*ShardCap) during the shard's given epoch.
type Grant struct {
	ReqID  uint64
	Client uint64
	Shard  int
	Epoch  uint64
	Name   int
}

// GrantNotifier receives grants for its acquire requests. GrantNotify is
// invoked with the grant during CloseEpoch — under the shard lock, so it
// must be fast, must not block, and must not call back into the Service.
// Its return value reports whether the recipient still exists: returning
// false makes the service absorb the grant as a crash, releasing the name
// immediately (journaled as an assign + release in the same epoch).
//
// An interface rather than a func so batch submitters (Server connections)
// can pass pooled per-request state without allocating a closure per op.
type GrantNotifier interface {
	GrantNotify(Grant) bool
}

// notifyFunc adapts a plain notify func to GrantNotifier. Func values are
// pointer-shaped, so the interface conversion does not allocate.
type notifyFunc func(Grant) bool

// GrantNotify implements GrantNotifier.
func (f notifyFunc) GrantNotify(g Grant) bool { return f(g) }

// enqueueAware is the optional GrantNotifier extension for batch submitters
// that need each request's ID: Enqueued is invoked under the shard lock as
// the request joins the queue, before any epoch can grant it — so the owner
// can record the ID without racing the grant (or the recycling of its own
// per-request state after it).
type enqueueAware interface {
	Enqueued(id uint64)
}

// refuseAware is the optional GrantNotifier extension for batch submitters
// that answer their own requests: Refused is invoked under the shard lock
// when a failed shard drops the request from its queue, so the owner can
// answer it with the failure. Like GrantNotify it must be fast, must not
// block, and must not call back into the Service.
type refuseAware interface {
	Refused(shard int)
}

// request is one queued acquire.
type request struct {
	id        uint64
	client    uint64
	sink      GrantNotifier
	cancelled bool
}

// shard is one independent namespace with its pending queue. mu serializes
// everything, including the epoch's renaming run, so an epoch observes (and
// commits) a consistent free list.
//
// Everything below the seed is reusable steady-state scratch: the per-shard
// runner instance (forked so shards never share mutable runner state), the
// epoch's label/rank/grant buffers, the permutation-check bitmap, and a
// free list of request structs recycled from grant to acquire. Together
// with the ledger's bitmap free pool they make a failure-free CloseEpoch
// allocation-free (TestEpochZeroAllocs).
type shard struct {
	mu      sync.Mutex
	led     *ledger
	pending []*request // FIFO, so ascending by request ID (Cancel searches it)
	queued  int        // uncancelled entries in pending
	nextID  uint64     // per-shard request ID counter
	seed    uint64     // per-shard seed root for epoch derivation
	runner  Runner     // this shard's private epoch engine

	labels   []proto.ID // epoch scratch: batch labels
	ranks    []int      // epoch scratch: runner output
	grants   []Grant    // epoch scratch: accepted grants, reused per epoch
	permSeen []bool     // epoch scratch: checkPermutation bitmap
	freeReq  []*request // recycled request structs

	acquires uint64
	absorbed uint64

	dur *shardWAL // nil on volatile services
}

// Service is the deterministic name-allocation core: sharded ledgers, FIFO
// pending queues, and the epoch loop. It is safe for concurrent use; each
// shard is an independent lock domain.
type Service struct {
	cfg    Config
	shards []*shard

	// Durability plumbing; zero-valued on volatile services.
	closeOnce sync.Once
	closeErr  error

	// walSync is SyncWAL's scratch: the dirty shards of the pass under way
	// and their flush results, reused by every pass (a follower runs one per
	// acknowledgement round).
	walSync struct {
		mu    sync.Mutex
		dirty []int
		errs  []error
	}
	// onRecord, when non-nil, observes every sealed WAL record as it is
	// produced (under the shard lock) — the replication tap. Set once via
	// SetRecordHook before any traffic.
	onRecord func(shard int, payload []byte)
}

// SetRecordHook installs the sealed-record observer (see Service.onRecord).
// The hook runs under the shard lock with a payload that aliases encode
// scratch: it must copy what it keeps, must not block, and must not call
// back into the Service. Install it before the service takes traffic.
func (s *Service) SetRecordHook(hook func(shard int, payload []byte)) {
	s.onRecord = hook
}

// New builds a Service. With Config.Durable set it recovers the persisted
// state first (see Open, which it aliases).
func New(cfg Config) (*Service, error) { return Open(cfg) }

// Open builds a Service, recovering each shard from its durability sink
// when Config.Durable is set: newest valid snapshot, WAL tail replay with
// the sealed digests re-proven, torn tails truncated. A volatile config
// (nil Durable) makes Open identical to a plain constructor. Durable
// services must be Closed to flush the final checkpoint.
func Open(cfg Config) (*Service, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	var dcfg *Durability
	if cfg.Durable != nil {
		var err error
		dcfg, err = cfg.Durable.normalized(cfg.Shards)
		if err != nil {
			return nil, err
		}
		cfg.Durable = dcfg // the service's own copy: NewServer reads its Fsync
		if cfg.Journal && cfg.JournalLimit <= 0 {
			// An unbounded in-memory journal under a durable service is pure
			// memory growth (the WAL already holds the complete history);
			// cap it rather than let a long-lived daemon OOM.
			cfg.JournalLimit = AutoJournalLimit
		}
	}
	s := &Service{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	for i := range s.shards {
		s.shards[i] = &shard{
			led:    newLedger(cfg.ShardCap, cfg.Journal, cfg.JournalLimit),
			seed:   rng.DeriveSeed(cfg.Seed, shardSalt+uint64(i)),
			runner: forkRunner(cfg.Runner),
		}
		if dcfg != nil {
			if err := s.recoverShard(i, s.shards[i], dcfg); err != nil {
				for j := 0; j <= i; j++ {
					if d := s.shards[j].dur; d != nil {
						d.store.Close()
					}
				}
				return nil, err
			}
		}
	}
	return s, nil
}

// Shards returns the number of shards.
func (s *Service) Shards() int { return len(s.shards) }

// ShardCap returns the number of names per shard.
func (s *Service) ShardCap() int { return s.cfg.ShardCap }

// Capacity returns the total namespace size Shards*ShardCap.
func (s *Service) Capacity() int { return len(s.shards) * s.cfg.ShardCap }

// Shard is the deterministic shard router: the shard that serves the given
// client's acquires. It hashes the client ID, so any fixed client population
// spreads across shards regardless of how the IDs were chosen.
func (s *Service) Shard(client uint64) int {
	if len(s.shards) == 1 {
		return 0
	}
	return int(rng.DeriveSeed(shardSalt, client) % uint64(len(s.shards)))
}

// ShardOfName returns the shard that owns a global name.
func (s *Service) ShardOfName(name int) (int, error) {
	if name < 1 || name > s.Capacity() {
		return 0, fmt.Errorf("namesvc: name %d outside 1..%d", name, s.Capacity())
	}
	return (name - 1) / s.cfg.ShardCap, nil
}

// globalName maps a shard-local name to the service-wide namespace.
func (s *Service) globalName(shardIdx, local int) int {
	return shardIdx*s.cfg.ShardCap + local
}

// enqueueLocked queues one acquire on the shard, assigning the next
// per-shard request ID; sh.mu must be held. Request IDs are per-shard (not
// global), so a shard's ID sequence — and therefore its ledger digest — is
// a pure function of the shard's own arrival order, no matter how arrivals
// to other shards interleave or whether they were submitted one at a time
// or in batches (TestBatchedSubmissionMatchesPerOp pins this).
func (sh *shard) enqueueLocked(client uint64, sink GrantNotifier) uint64 {
	sh.nextID++
	id := sh.nextID
	var req *request
	if n := len(sh.freeReq); n > 0 {
		req = sh.freeReq[n-1]
		sh.freeReq = sh.freeReq[:n-1]
		*req = request{id: id, client: client, sink: sink}
	} else {
		req = &request{id: id, client: client, sink: sink}
	}
	sh.pending = append(sh.pending, req)
	sh.queued++
	sh.acquires++
	if ea, ok := sink.(enqueueAware); ok {
		ea.Enqueued(id)
	}
	return id
}

// Acquire enqueues one acquire request for the client's shard and returns
// its request ID (the renaming label it will carry into its epoch). The
// request completes when a later CloseEpoch on that shard assigns it a name.
//
// notify, when non-nil, follows the GrantNotifier contract: invoked with
// the grant during CloseEpoch under the shard lock; returning false makes
// the service absorb the grant as a crash. A nil notify accepts every
// grant; callers then collect grants from CloseEpoch's return value. A
// failed shard (see the failure policy in durability.go) refuses it.
func (s *Service) Acquire(client uint64, notify func(Grant) bool) (uint64, error) {
	if client == 0 {
		return 0, fmt.Errorf("namesvc: client ID must be non-zero")
	}
	var sink GrantNotifier
	if notify != nil {
		sink = notifyFunc(notify)
	}
	sh := s.shards[s.Shard(client)]
	if err := sh.refusal(); err != nil {
		return 0, err
	}
	sh.mu.Lock()
	id := sh.enqueueLocked(client, sink)
	sh.mu.Unlock()
	return id, nil
}

// AcquireOp is one element of an AcquireBatch submission.
type AcquireOp struct {
	// Client is the acquiring client; must be non-zero and must route to
	// the batch's shard (Service.Shard).
	Client uint64
	// Notify receives the grant (see Acquire); nil accepts every grant.
	Notify GrantNotifier
}

// AcquireBatch enqueues a bucket of acquire requests on one shard under a
// single lock acquisition — the amortized counterpart of calling Acquire
// once per op. Callers that ingest pipelined traffic (Server connections)
// bucket decoded acquires by Service.Shard and submit each bucket whole.
//
// The request IDs are appended to ids (which may be nil) and returned, in
// op order; the per-shard ID sequence, the queue order, and therefore every
// grant and digest are identical to submitting the same ops one at a time
// in the same per-shard order. It errors — enqueueing nothing — if any op
// has a zero client or routes to a different shard, or the shard has failed.
func (s *Service) AcquireBatch(shardIdx int, ops []AcquireOp, ids []uint64) ([]uint64, error) {
	if shardIdx < 0 || shardIdx >= len(s.shards) {
		return ids, fmt.Errorf("namesvc: shard %d outside 0..%d", shardIdx, len(s.shards)-1)
	}
	for i, op := range ops {
		if op.Client == 0 {
			return ids, fmt.Errorf("namesvc: batch op %d: client ID must be non-zero", i)
		}
		if s.Shard(op.Client) != shardIdx {
			return ids, fmt.Errorf("namesvc: batch op %d: client %d routes to shard %d, not %d",
				i, op.Client, s.Shard(op.Client), shardIdx)
		}
	}
	sh := s.shards[shardIdx]
	if err := sh.refusal(); err != nil {
		return ids, err
	}
	sh.mu.Lock()
	for _, op := range ops {
		ids = append(ids, sh.enqueueLocked(op.Client, op.Notify))
	}
	sh.mu.Unlock()
	return ids, nil
}

// Cancel revokes a still-queued acquire request. It reports whether the
// request was revoked before being granted; false means the request is
// unknown — never issued, already granted (release the name instead),
// already cancelled, or not this client's (request IDs are per-shard
// sequences, so the ID alone does not identify the requester). A cancelled
// request never reaches a renaming batch.
func (s *Service) Cancel(client, reqID uint64) bool {
	sh := s.shards[s.Shard(client)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// pending is in ascending request-ID order — IDs are assigned as requests
	// are appended, and epochs only remove a prefix or filter in place — and
	// a granted request has left it, so a binary search is the whole lookup.
	i := sort.Search(len(sh.pending), func(i int) bool { return sh.pending[i].id >= reqID })
	if i == len(sh.pending) {
		return false
	}
	req := sh.pending[i]
	if req.id != reqID || req.client != client || req.cancelled {
		return false
	}
	req.cancelled = true
	// Drop the caller's sink now (it can pin a whole connection's state);
	// the struct itself is recycled by the next CloseEpoch's filter pass.
	req.sink = nil
	sh.queued--
	return true
}

// Release returns a held global name to its shard's free pool. It errors if
// the name is outside the namespace or not currently held by the client,
// or the shard has failed (see the failure policy in durability.go).
func (s *Service) Release(client uint64, name int) error {
	shardIdx, err := s.ShardOfName(name)
	if err != nil {
		return err
	}
	local := name - shardIdx*s.cfg.ShardCap
	sh := s.shards[shardIdx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.refusal(); err != nil {
		return err
	}
	err = sh.led.release(sh.led.epoch, client, local)
	if err == nil {
		s.flushWALLocked(shardIdx, sh)
	}
	return err
}

// ReleaseOp is one element of a ReleaseBatch submission.
type ReleaseOp struct {
	// Client is the holder releasing the name.
	Client uint64
	// Name is the held global name; must belong to the batch's shard
	// (Service.ShardOfName).
	Name int
}

// ReleaseBatch returns a bucket of held names to one shard's free pool
// under a single lock acquisition — the amortized counterpart of calling
// Release once per op. Each op's outcome is appended to errs (which may be
// nil) and returned, nil for success, in op order; an op that fails (name
// outside the shard, not held, held by someone else) does not affect the
// others. The ledger events are identical to releasing the same names one
// at a time in the same per-shard order. The batch-level error reports an
// out-of-range shard index or a failed shard, which releases nothing.
func (s *Service) ReleaseBatch(shardIdx int, ops []ReleaseOp, errs []error) ([]error, error) {
	if shardIdx < 0 || shardIdx >= len(s.shards) {
		return errs, fmt.Errorf("namesvc: shard %d outside 0..%d", shardIdx, len(s.shards)-1)
	}
	sh := s.shards[shardIdx]
	lo, hi := shardIdx*s.cfg.ShardCap, (shardIdx+1)*s.cfg.ShardCap
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.refusal(); err != nil {
		return errs, err
	}
	for _, op := range ops {
		if op.Name <= lo || op.Name > hi {
			errs = append(errs, fmt.Errorf("namesvc: name %d outside shard %d's %d..%d",
				op.Name, shardIdx, lo+1, hi))
			continue
		}
		errs = append(errs, sh.led.release(sh.led.epoch, op.Client, op.Name-lo))
	}
	s.flushWALLocked(shardIdx, sh)
	return errs, nil
}

// Reclaim re-binds a held global name to the client the ledger records as
// its holder — the restart handshake: after a crash and recovery, grants
// survive in the ledger but no live connection holds them, so a returning
// client proves continuity by reclaiming the names it held. It errors if
// the name is outside the namespace, free, or held by a different client.
// Reclaiming mutates nothing (the ledger already agrees), so it appends no
// WAL record.
func (s *Service) Reclaim(client uint64, name int) error {
	shardIdx, err := s.ShardOfName(name)
	if err != nil {
		return err
	}
	local := name - shardIdx*s.cfg.ShardCap
	sh := s.shards[shardIdx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch h := sh.led.holderOf(local); {
	case h == 0:
		return fmt.Errorf("namesvc: name %d is not assigned", name)
	case h != client:
		return fmt.Errorf("namesvc: name %d is not held by client %d", name, client)
	}
	return nil
}

// Pending returns the number of queued (uncancelled) requests on a shard.
func (s *Service) Pending(shardIdx int) int {
	sh := s.shards[shardIdx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.queued
}

// EpochRunnable reports whether CloseEpoch on the shard could currently
// assign anything: queued requests exist and free names remain. Epoch-loop
// drivers use it to distinguish "nothing to do" from "an epoch ran but
// every grant was absorbed" (the latter must keep draining).
func (s *Service) EpochRunnable(shardIdx int) bool {
	sh := s.shards[shardIdx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.led.freeCount() > 0 && sh.queued > 0
}

// CloseEpoch runs one renaming epoch on the given shard: it batches up to
// MaxBatch queued requests (bounded by the free names), runs the shard's
// Runner over the batch with a seed derived from (Seed, shard, epoch), and
// assigns each request the rank-th smallest free name. It returns the grants
// that were accepted (see Acquire's notify contract); grants whose recipient
// vanished are absorbed as crashes. With nothing to do — no queued requests,
// or no free names — it returns nil without advancing the epoch. A failed
// shard refuses to run one and drops its queue, free names or none, calling
// Refused on each dropped request's notifier that has it (refuseAware); an
// epoch whose record fails to log returns no grants, only the error, and a
// commit gate discards what it notified.
//
// The returned slice is the shard's reusable grant buffer: it is valid
// until the next CloseEpoch on the same shard, and callers that retain
// grants across epochs must copy them (CloseEpochs does). Server-style
// callers consume grants through notify and only look at the length.
//
// The shard lock is held for the whole epoch, including the renaming run:
// concurrent Acquire/Release on the same shard wait, which is exactly the
// group-commit batching that lets the next epoch absorb them in one run.
// A failure-free epoch performs no heap allocations: labels, ranks, the
// free-name snapshot, the permutation check, and the grants all live in
// per-shard reusable scratch, and the cohort runner re-arms the shard's
// one cohort at the batch's size instead of building one
// (TestEpochZeroAllocs, TestEpochZeroAllocsVariedBatch).
func (s *Service) CloseEpoch(shardIdx int) ([]Grant, error) {
	if shardIdx < 0 || shardIdx >= len(s.shards) {
		return nil, fmt.Errorf("namesvc: shard %d outside 0..%d", shardIdx, len(s.shards)-1)
	}
	sh := s.shards[shardIdx]
	sh.mu.Lock()
	defer sh.mu.Unlock()

	// Drop cancelled requests (their structs go back to the pool), then
	// snapshot the batch: FIFO prefix, bounded by the free pool.
	kept := sh.pending[:0]
	for _, r := range sh.pending {
		if r.cancelled {
			r.sink = nil
			sh.freeReq = append(sh.freeReq, r)
			continue
		}
		kept = append(kept, r)
	}
	sh.pending = kept
	if len(sh.pending) == 0 {
		return nil, nil
	}
	if err := sh.refusal(); err != nil {
		// Nothing queued here can be granted any more, even once names
		// free up: drop it all, telling each requester that asked to be
		// told, so the next drain finds no work instead of this error.
		for _, r := range sh.pending {
			if ra, ok := r.sink.(refuseAware); ok {
				ra.Refused(shardIdx)
			}
		}
		sh.queued = 0
		sh.recycleHusksLocked()
		return nil, err
	}
	limit := min(s.cfg.MaxBatch, sh.led.freeCount(), len(sh.pending))
	if limit == 0 {
		return nil, nil
	}
	batch := sh.pending[:limit]

	if cap(sh.labels) < limit {
		sh.labels = make([]proto.ID, 0, max(limit, 64))
		sh.ranks = make([]int, max(limit, 64))
		sh.permSeen = make([]bool, max(limit, 64))
	}
	labels := sh.labels[:limit]
	ranks := sh.ranks[:limit]
	for i, r := range batch {
		labels[i] = proto.ID(r.id)
	}
	epoch := sh.led.epoch + 1
	seed := rng.DeriveSeed(sh.seed, epoch)
	if err := sh.runner.Assign(seed, labels, ranks); err != nil {
		// The batch stays queued; a later epoch retries it.
		return nil, fmt.Errorf("namesvc: shard %d epoch %d: %w", shardIdx, epoch, err)
	}
	if err := checkPermutation(ranks, limit, sh.permSeen); err != nil {
		return nil, fmt.Errorf("namesvc: shard %d epoch %d: runner %s: %w", shardIdx, epoch, sh.runner.Name(), err)
	}

	// Commit: rank r takes the r-th smallest free name. The snapshot is the
	// ledger's peek scratch — plain values, stable across the assigns below
	// (the bitmap mutates, the snapshot does not alias it).
	freeSnap := sh.led.peekFree(limit)
	sh.led.epoch = epoch
	grants := sh.grants[:0]
	for i, req := range batch {
		local := freeSnap[ranks[i]-1]
		sh.led.assign(epoch, req.id, req.client, local)
		g := Grant{
			ReqID:  req.id,
			Client: req.client,
			Shard:  shardIdx,
			Epoch:  epoch,
			Name:   s.globalName(shardIdx, local),
		}
		accepted := req.sink == nil || req.sink.GrantNotify(g)
		req.sink = nil
		sh.freeReq = append(sh.freeReq, req)
		if !accepted {
			// The requester is gone — a crash between acquire and grant.
			// The name bounces straight back to the free pool; uniqueness
			// holds because it was never observable outside this epoch.
			sh.absorbed++
			if err := sh.led.release(epoch, req.client, local); err != nil {
				panic(fmt.Sprintf("namesvc: absorbing crashed grant: %v", err))
			}
			continue
		}
		grants = append(grants, g)
	}
	sh.grants = grants
	sh.queued -= limit
	sh.pending = append(sh.pending[:0], sh.pending[limit:]...)
	// Seal the epoch's events (assigns plus absorbed releases) into one WAL
	// record.
	s.flushWALLocked(shardIdx, sh)
	if err := sh.refusal(); err != nil {
		return nil, err
	}
	return grants, nil
}

// CloseEpochs runs CloseEpoch on every shard and concatenates the grants in
// shard order — the convenience driver for tests, examples, and embedders
// without their own per-shard epoch loops. Shards are striped across
// min(GOMAXPROCS, shards) workers, as the server's epoch loops stripe them,
// so concurrent shard epochs overlap on multi-core; every shard runs even if
// another errors, and the result — the shard-ordered grant concatenation
// and the lowest-shard error, if any — is identical to closing each shard
// sequentially. The returned grants are copies, valid indefinitely.
func (s *Service) CloseEpochs() ([]Grant, error) {
	workers := min(len(s.shards), runtime.GOMAXPROCS(0))
	perShard := make([][]Grant, len(s.shards))
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(s.shards); i += workers {
				grants, err := s.CloseEpoch(i)
				errs[i] = err
				// CloseEpoch returns the shard's reusable scratch; copy
				// before any later epoch on the shard can overwrite it.
				perShard[i] = append([]Grant(nil), grants...)
			}
		}()
	}
	wg.Wait()
	var all []Grant
	var firstErr error
	for i := range s.shards {
		all = append(all, perShard[i]...)
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
	}
	return all, firstErr
}

// checkPermutation verifies a runner returned each rank 1..n exactly once.
// seen is caller-provided scratch of at least n entries; it is reset before
// use, so callers need not clear it.
func checkPermutation(ranks []int, n int, seen []bool) error {
	if len(ranks) != n {
		return fmt.Errorf("assigned %d ranks for a batch of %d", len(ranks), n)
	}
	seen = seen[:n]
	for i := range seen {
		seen[i] = false
	}
	for _, r := range ranks {
		if r < 1 || r > n {
			return fmt.Errorf("rank %d outside 1..%d", r, n)
		}
		if seen[r-1] {
			return fmt.Errorf("rank %d assigned twice", r)
		}
		seen[r-1] = true
	}
	return nil
}
