package namesvc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ballsintoleaves/internal/wire"
)

// connReadBufSize is each connection's read buffer: large enough that one
// kernel read delivers a deep pipelined burst for the ingestion loop to
// drain in a single pass.
const connReadBufSize = 64 << 10

// maxIngestBurst caps the frames decoded per ingestion pass, bounding the
// per-connection bucket scratch and the latency of the first op in a burst.
const maxIngestBurst = 512

// maxStagedGrants bounds the grants a shard stages ahead of delivery. With
// delivery inline it forces a delivery pass mid-drain, bounding both the
// delivery scratch and the latency of a drain's first epoch when a deep
// backlog lets the drain close many epochs back to back. With a delivery
// goroutine it is the pipeline's window: the epoch loop stops closing
// epochs while this many closed-but-uncommitted grants are already staged
// behind the batch in flight.
const maxStagedGrants = 4096

// CommitGate couples a Server to an external commit rule — a replication
// quorum (internal/namesvc/repl) or group-commit fsync (GroupGate). The
// server consults it at two points: write admission and grant delivery.
type CommitGate interface {
	// AdmitWrites reports whether this server currently serves writes
	// (acquire, release, reclaim, epoch ops). When false, leader is the
	// client address of the node that does (may be empty if unknown), and
	// writes are rejected with RejectNotLeader carrying that hint. Called
	// per ingested frame; it must be cheap and lock-free.
	AdmitWrites() (ok bool, leader string)
	// WaitCommitted blocks until every record the shard has produced so
	// far is committed (quorum-acknowledged, or fsynced, per the gate).
	// Grant delivery for the shard waits on it; an error means the records
	// can no longer commit (the node was deposed mid-epoch) and the staged
	// grants are discarded undelivered — never observable by any client,
	// so a new leader re-granting those names is safe.
	WaitCommitted(shard int) error
}

// ReplGate is the optional CommitGate extension for gates that front a
// replication group. NewServer resolves it once, from the configured Gate;
// a gate without it (GroupGate) makes a standalone server, which reports
// RoleStandalone, serves reads unconditionally and adds nothing to stats.
type ReplGate interface {
	// WireRole is the node's replication role plus the leader's client
	// address: the welcome carries both so clients can redirect before the
	// first write.
	WireRole() (Role, string)
	// ReadLeaseValid gates stats/journal reads: a leader whose check-quorum
	// lease has gone stale may already be deposed, so those ops are rejected
	// with RejectNotLeader until the lease is fresh again — this is what
	// makes leader reads linearizable.
	ReadLeaseValid() bool
	// WireReplStats annotates the stats reply: term, role, the reason for
	// the last term/role change, and the compaction floor.
	WireReplStats() (term uint64, role Role, reason string, compactFloor uint64)
}

// groupGate adapts Service.SyncShard to the CommitGate seam: writes are
// always admitted, and delivery waits for a flush of the shard's own WAL
// segment. Sync failures degrade the shard fail-open (durability.go), so
// delivery proceeds even then.
type groupGate struct{ svc *Service }

func (g groupGate) AdmitWrites() (bool, string)   { return true, "" }
func (g groupGate) WaitCommitted(shard int) error { g.svc.SyncShard(shard); return nil }

// GroupGate returns the ServerConfig.Gate for a standalone server whose
// service uses FsyncGroup: a shard's grants are delivered only after a
// flush covers their records, every epoch closed during one flush sharing
// the next, and different shards' flushes overlapping.
func GroupGate(svc *Service) CommitGate { return groupGate{svc} }

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// Service is the allocation core to serve. Required.
	Service *Service
	// Gate, when non-nil, is the external commit rule (see CommitGate):
	// replication quorum or group-commit fsync. Required when the service
	// uses FsyncGroup (use GroupGate); nil otherwise means no gating.
	Gate CommitGate
	// MaxOutstanding caps one connection's in-flight acquires; beyond it
	// acquires are rejected with RejectBusy. Zero means 4096.
	MaxOutstanding int
	// MaxConnQueue caps one connection's pending outbound bytes (encoded
	// response frames not yet accepted by the kernel). A reader too slow or
	// stalled to drain its responses would otherwise grow the queue without
	// bound; at the cap the server disconnects that client, and the
	// ordinary crash-absorption teardown reclaims everything it held. Zero
	// means 1 MiB. (Each connection double-buffers, so peak memory is up to
	// twice this while a flush is in flight.)
	MaxConnQueue int
	// IOTimeout bounds every write. Zero means 30s.
	IOTimeout time.Duration
	// HandshakeTimeout bounds the wait for the client's hello frame, so a
	// half-open or stalled connection (a chaos proxy holding the dial, a
	// SYN-scanned port) sheds its reader goroutine instead of pinning it
	// until IOTimeout. Mirrors repl's replIOTimeout. Zero means 5s.
	HandshakeTimeout time.Duration
	// ManualEpochs disables the autonomous epoch loops: no epoch runs until
	// a client sends an epoch-close op for a shard, which closes exactly one
	// epoch and replies with the shard's epoch number and grant count after
	// delivering the grants. This makes epoch composition — which requests
	// batch into which epoch — a pure function of the wire traffic, which is
	// what the deterministic simulator's differential replay needs; it is a
	// testing/replay mode, not a production configuration. On a server
	// without ManualEpochs the epoch op is rejected with RejectUnsupported.
	ManualEpochs bool
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

func (cfg *ServerConfig) normalize() error {
	if cfg.Service == nil {
		return fmt.Errorf("namesvc: ServerConfig.Service is required")
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 4096
	}
	if cfg.MaxConnQueue <= 0 {
		cfg.MaxConnQueue = 1 << 20
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 30 * time.Second
	}
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return nil
}

// Server puts a Service on a listener: it speaks the blnamed wire protocol,
// runs the shards' group-commit epoch loops, and renders connection
// failures onto the service's crash-absorption semantics — a connection
// that dies with queued acquires cancels them (or lets their grants be
// absorbed), and every name the connection held is released, so names never
// leak to dead clients.
//
// The front end is batched end to end. Ingestion: each connection's handler
// drains every complete pipelined frame its read buffer already holds,
// buckets the burst's acquires and releases by shard, and submits each
// bucket through Service.AcquireBatch / Service.ReleaseBatch — one shard
// lock acquisition and one epoch-loop kick per shard per burst instead of
// one per request. Delivery: grants produced by a shard's CloseEpoch are
// staged per destination connection and committed after the epoch — all of
// one connection's grant frames encoded contiguously and appended to its
// outbox under a single lock with a single writer wakeup per connection per
// epoch. Behind a commit gate the two halves are a pipeline: the epoch loop
// keeps closing epochs while a per-shard delivery goroutine waits out the
// commit of the ones before (see shardDelivery).
type Server struct {
	cfg     ServerConfig
	svc     *Service
	repl    ReplGate        // cfg.Gate's replication extension; nil when standalone
	workers int             // epoch loops; shard s is driven by loop s%workers
	kicks   []chan struct{} // one binary semaphore per epoch loop
	deliver []shardDelivery
	// manualMu serializes manual epoch closes per shard (ManualEpochs mode):
	// a shard's delivery scratch is owned by whoever closes its epochs, and
	// with no epoch loops that is whichever connection sent the epoch op.
	manualMu []sync.Mutex
	stop     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]chan struct{} // conn -> closed when its handler is done

	// bound is the server-wide binding authority: which connection a granted
	// name is currently deliverable/releasable on (see bindTable).
	bound *bindTable
}

// NewServer builds a Server and starts its epoch loops: min(GOMAXPROCS,
// shards) of them, loop w owning the stripe of shards w, w+loops, … — on
// machines with fewer cores than shards, one wakeup then drains several
// shards, instead of paying a goroutine handoff per shard per burst for
// parallelism the hardware cannot deliver. With ManualEpochs there are none.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	shards := cfg.Service.Shards()
	workers := min(runtime.GOMAXPROCS(0), shards)
	if cfg.ManualEpochs {
		workers = 0 // no autonomous epoch loops; clients drive every close
	}
	s := &Server{
		cfg:      cfg,
		svc:      cfg.Service,
		workers:  workers,
		kicks:    make([]chan struct{}, workers),
		deliver:  make([]shardDelivery, shards),
		manualMu: make([]sync.Mutex, shards),
		stop:     make(chan struct{}),
		conns:    make(map[net.Conn]chan struct{}),
		bound:    newBindTable(shards, cfg.Service.Capacity()),
	}
	s.repl, _ = cfg.Gate.(ReplGate)
	for i := range s.deliver {
		d := &s.deliver[i]
		d.pend, d.fly = newGrantBatch(), newGrantBatch()
		d.cond.L = &d.mu
		// Behind a gate, delivery blocks (an fsync, a quorum round trip):
		// give it its own goroutine so the shard's epochs keep closing.
		// Without one it is pure CPU and stays inline on the epoch loop.
		if cfg.Gate != nil && workers > 0 {
			d.piped = true
			s.wg.Add(1)
			go s.deliverLoop(i)
		}
	}
	for w := range s.kicks {
		s.kicks[w] = make(chan struct{}, 1)
		s.wg.Add(1)
		go s.epochLoop(w)
	}
	return s, nil
}

// Serve accepts connections on ln until the listener is closed, handling
// each on its own goroutine. It does not close ln; the owner closes the
// listener to stop accepting and then calls Close to tear the server down.
func (s *Server) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.stop:
				return nil
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("namesvc: accept: %w", err)
		}
		s.mu.Lock()
		if s.conns == nil {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		done := make(chan struct{})
		s.conns[conn] = done
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			s.handle(conn)
			close(done)
		}()
	}
}

// Close stops the epoch loops, closes every live connection, and waits for
// all handlers to finish. The listener passed to Serve must be closed by
// its owner (before or after Close; Serve tolerates both orders).
func (s *Server) Close() error {
	s.once.Do(func() {
		close(s.stop)
		for i := range s.deliver {
			// An epoch loop waiting for room in a full window re-checks stop.
			d := &s.deliver[i]
			d.mu.Lock()
			d.cond.Broadcast()
			d.mu.Unlock()
		}
		s.mu.Lock()
		conns := s.conns
		s.conns = nil
		s.mu.Unlock()
		for conn := range conns {
			conn.Close()
		}
	})
	s.wg.Wait()
	return nil
}

// DisconnectAll severs every currently-live client connection and waits
// for their teardowns to finish: queued acquires cancelled, held names
// released. Connections accepted afterwards are unaffected; the server
// keeps accepting. A deposed replication leader calls this to quiesce its
// write pipeline before its state is overwritten by a catch-up snapshot
// (clients reconnect and are redirected to the new leader).
func (s *Server) DisconnectAll() {
	s.mu.Lock()
	conns := make([]net.Conn, 0, len(s.conns))
	dones := make([]chan struct{}, 0, len(s.conns))
	for conn, done := range s.conns {
		conns = append(conns, conn)
		dones = append(dones, done)
	}
	s.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
	for _, done := range dones {
		<-done
	}
}

// kick nudges the epoch loop driving a shard; the channel is a binary
// semaphore, so concurrent kicks coalesce. With ManualEpochs there is no
// loop to nudge — the next client-driven epoch close observes the work.
func (s *Server) kick(shard int) {
	if s.workers == 0 {
		return
	}
	select {
	case s.kicks[shard%s.workers] <- struct{}{}:
	default:
	}
}

// closeManualEpoch closes exactly one epoch on a shard and delivers its
// grants — the server half of the epoch op. The per-shard manual mutex
// makes the delivery scratch single-owner exactly as an epoch loop would;
// the read-loop goroutine that sent the op runs the close and the delivery
// (commit wait included) synchronously, so by the time its reply is
// encoded, every grant frame of the epoch is already committed to its
// destination outbox (FIFO before the reply on the requesting connection).
func (s *Server) closeManualEpoch(shard int) (epoch uint64, granted int, err error) {
	s.manualMu[shard].Lock()
	defer s.manualMu[shard].Unlock()
	grants, err := s.svc.CloseEpoch(shard)
	granted = len(grants)
	s.deliverInline(shard)
	return s.svc.ShardEpoch(shard), granted, err
}

// epochLoop drives the stripe of shards loop w owns (w, w+workers, …): on a
// kick it drains every owned shard in turn, so when shards outnumber cores a
// burst touching several shards costs one goroutine handoff, not one per
// shard (checking a quiet shard is one short lock acquisition). It closes
// epochs as soon as it is kicked; arrivals during one epoch's run form the
// next batch (and drainShard's yield lets a racing burst join this one).
func (s *Server) epochLoop(w int) {
	defer s.wg.Done()
	shards := s.svc.Shards()
	defer func() {
		for shard := w; shard < shards; shard += s.workers {
			s.stopDelivery(shard)
		}
	}()
	for {
		select {
		case <-s.stop:
			return
		case <-s.kicks[w]:
		}
		for shard := w; shard < shards; shard += s.workers {
			s.drainShard(shard)
		}
	}
}

// drainShard closes epochs on one shard until nothing more can be
// assigned — requests that queued during an epoch's renaming run form the
// next batch without another kick. With delivery inline (no commit gate) it
// then delivers every staged grant in one pass. Coalescing the delivery
// across the whole drain — not just one epoch — is safe because the drain is
// self-limiting: it ends once the shard's queue is empty, and the queue
// cannot refill off this shard's own grants until they are delivered; it
// buys one outbox lock and one writer wakeup per connection per drain, no
// matter how many epochs the drain closed. A deep backlog (many epochs'
// worth queued up front) is delivered in maxStagedGrants slices instead, so
// the first epoch's grants never wait on the whole backlog. Behind a gate
// the drain only stages: closeStaged hands the grants to the shard's
// delivery goroutine, which coalesces everything staged during one commit
// wait into the next.
func (s *Server) drainShard(shard int) {
	d := &s.deliver[shard]
	if !d.piped {
		defer s.deliverInline(shard)
	}
	for {
		if !d.piped && len(d.pend.staged) >= maxStagedGrants {
			s.deliverInline(shard)
		}
		// Yield once before closing: a kick often races the rest of the
		// kicker's burst (and other connections' bursts) through
		// ingestion, and on a loaded machine one scheduler pass lets
		// those arrivals join this epoch instead of fragmenting into
		// the next — micro-batching without a timer. Idle systems pay
		// nanoseconds.
		runtime.Gosched()
		granted, err := s.closeStaged(shard)
		if err != nil {
			// The batch stays queued; log and wait for the next kick
			// rather than spinning on a persistent failure.
			s.cfg.Logf("shard %d: epoch failed: %v", shard, err)
			return
		}
		if granted > 0 {
			continue
		}
		// No accepted grants — but an epoch may still have run with
		// every grant absorbed (the whole batch's connections died),
		// leaving later arrivals queued with nobody left to kick.
		// Keep draining while another epoch could assign; stop when
		// the queue is empty or the namespace is exhausted (a release
		// will kick us) — or the server is closing.
		if !s.svc.EpochRunnable(shard) || s.stopping() {
			return
		}
	}
}

// closeStaged closes one epoch on a shard, its accepted grants staging into
// the shard's pend batch (connReq.GrantNotify), and reports how many were
// accepted. On a piped shard the close runs under the delivery lock, which
// is what lets the delivery goroutine swap pend away between epochs but
// never during one; it first waits for room in the window — the pipeline's
// backpressure, and its natural batching: whatever queues up meanwhile
// forms one larger epoch — and afterwards wakes the deliverer.
func (s *Server) closeStaged(shard int) (granted int, err error) {
	d := &s.deliver[shard]
	if !d.piped {
		grants, err := s.svc.CloseEpoch(shard)
		return len(grants), err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.pend.staged) >= maxStagedGrants {
		if s.stopping() {
			return 0, nil
		}
		d.cond.Wait()
	}
	grants, err := s.svc.CloseEpoch(shard)
	if len(grants) > 0 {
		d.cond.Broadcast()
	}
	return len(grants), err
}

// stopping reports whether Close has begun.
func (s *Server) stopping() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// stagedGrant is one accepted grant awaiting delivery, linked to the next
// staged grant of the same connection.
type stagedGrant struct {
	req  *connReq
	g    Grant
	next int32
}

// grantRun is one connection's chain of staged grants within a batch.
type grantRun struct {
	conn       *svcConn
	head, tail int32
}

// grantBatch is a set of accepted grants awaiting delivery, in epoch order,
// chained per destination connection. Everything is reused batch to batch.
type grantBatch struct {
	staged []stagedGrant
	runs   []grantRun
	byConn map[*svcConn]int32 // conn -> index into runs
}

func newGrantBatch() *grantBatch {
	return &grantBatch{byConn: make(map[*svcConn]int32)}
}

// stage links one accepted grant onto its connection's run.
func (b *grantBatch) stage(r *connReq, g Grant) {
	idx := int32(len(b.staged))
	b.staged = append(b.staged, stagedGrant{req: r, g: g, next: -1})
	if ri, ok := b.byConn[r.c]; ok {
		b.staged[b.runs[ri].tail].next = idx
		b.runs[ri].tail = idx
	} else {
		b.byConn[r.c] = int32(len(b.runs))
		b.runs = append(b.runs, grantRun{conn: r.c, head: idx, tail: idx})
	}
}

func (b *grantBatch) reset() {
	b.staged = b.staged[:0]
	b.runs = b.runs[:0]
	clear(b.byConn)
}

// shardDelivery is one shard's delivery stage: a double buffer of grant
// batches, the same pend/fly pattern as a connection's outbox. During
// CloseEpoch the grant notifies stage accepted grants into pend (under the
// shard lock, without touching any connection lock); delivery swaps pend
// with fly, waits for the commit gate once for the whole fly batch, then
// walks its per-connection runs and commits each one — the batch's frames
// for a connection encoded contiguously, appended to its outbox under one
// lock, with one writer wakeup.
//
// Without a gate (and for manual epochs) whoever closes the shard's epochs
// also delivers, inline, and nothing here needs a lock. Behind a gate the
// shard is piped: the epoch loop stages into pend — epoch N+1, N+2, … —
// while the shard's delivery goroutine is blocked committing fly, so a
// commit wait covers every epoch closed during the one before it. mu then
// guards pend: the epoch loop holds it across each CloseEpoch, the
// deliverer for the swap. fly and the encode scratch belong to whoever
// delivers. The window is bounded by maxStagedGrants (closeStaged).
type shardDelivery struct {
	piped bool // a delivery goroutine shares pend with the epoch loop

	mu   sync.Mutex
	cond sync.Cond // pend gained grants, pend was swapped away, or stop
	stop bool      // the epoch loop has exited; drain pend and exit
	pend *grantBatch

	fly    *grantBatch
	w      wire.Writer    // frame-body encode scratch
	buf    []byte         // contiguous frames for the run being built
	rel    []Grant        // grants to release (recipient gone mid-flight)
	pickup sync.WaitGroup // the writer a commit woke, until it takes its batch
}

// stopDelivery tells a piped shard's delivery goroutine that its epoch loop
// has exited, so nothing more will be staged.
func (s *Server) stopDelivery(shard int) {
	d := &s.deliver[shard]
	d.mu.Lock()
	d.stop = true
	d.cond.Broadcast()
	d.mu.Unlock()
}

// deliverLoop is a piped shard's delivery goroutine: take everything the
// epoch loop has staged, wait for its commit, deliver it, repeat. At most
// one commit wait per shard is ever in flight, always from here. It exits
// once the epoch loop has and pend is drained, so grants staged for
// connections that died with the server are still released.
//
// Wake, then wait: it does not start its next commit wait while a
// connection writer that this delivery woke from its idle wait has not yet
// taken its outbox batch (deliverFly hands each one the processor in turn).
// A commit wait can be a blocking fsync, and a goroutine blocked in a
// system call keeps its processor — together with the writer it just
// readied there — until the runtime's monitor retakes the processor, which
// can take up to 10 ms once the process has been partly idle. A writer that
// was already busy, inside a Write to a slow reader, was not woken and is
// never waited on, and no wait holds a lock.
func (s *Server) deliverLoop(shard int) {
	defer s.wg.Done()
	d := &s.deliver[shard]
	for {
		d.mu.Lock()
		for len(d.pend.staged) == 0 && !d.stop {
			d.cond.Wait()
		}
		if len(d.pend.staged) == 0 {
			d.mu.Unlock()
			return
		}
		d.pend, d.fly = d.fly, d.pend
		d.cond.Broadcast() // room in the window
		d.mu.Unlock()
		s.deliverFly(shard)
	}
}

// deliverInline delivers what the caller's own epoch closes staged: the
// inline counterpart of one deliverLoop turn, for shards without a delivery
// goroutine (no gate, or manual epochs), where the caller owns both
// batches.
func (s *Server) deliverInline(shard int) {
	d := &s.deliver[shard]
	d.pend, d.fly = d.fly, d.pend
	s.deliverFly(shard)
}

// deliverFly commits the shard's fly batch — the staged grants of one or
// more epochs, in epoch order — one connection at a time: frames are
// encoded outside any lock, then commitGrants appends them to the
// connection's outbox, binds the names to it and retires their requests
// under a single lock with a single cond-signal. Grants whose connection
// vanished between the in-epoch accept and this commit are released here —
// the name returns to the pool having never been observable on the wire.
//
// On a piped shard, a commit that wakes a parked writer is followed by a
// wait until that writer has taken its batch: the wakeup put the writer in
// this processor's next-to-run slot, so parking here runs it at once, and
// the writer releases the deliverer at its swap, before its Write. Waiting
// once after the whole batch instead would leave every writer but the last
// woken behind whatever else is queued on the processor, and the deliverer
// with them.
func (s *Server) deliverFly(shard int) {
	d := &s.deliver[shard]
	b := d.fly
	if len(b.staged) == 0 {
		return
	}
	if g := s.cfg.Gate; g != nil {
		// The commit rule: nothing reaches a client until the gate says the
		// shard's records are committed (quorum-acknowledged / fsynced). One
		// wait covers the whole batch: its records were all produced before
		// the call. On error the node was deposed with these grants in
		// flight — discard them undelivered, and with them whatever later
		// epochs have staged behind them, whose records can commit no more
		// than these. No client ever observed any of them, so the new
		// leader's epochs may re-grant the same names without a duplicate
		// ever being visible; the local ledger divergence is repaired by
		// the catch-up resync that follows deposition.
		if err := g.WaitCommitted(shard); err != nil {
			d.mu.Lock()
			n := len(b.staged) + len(d.pend.staged)
			d.pend.reset()
			d.cond.Broadcast()
			d.mu.Unlock()
			b.reset()
			s.cfg.Logf("shard %d: discarding %d staged grants: %v", shard, n, err)
			return
		}
	}
	released := false
	for i := range b.runs {
		run := &b.runs[i]
		d.buf = d.buf[:0]
		for j := run.head; j >= 0; j = b.staged[j].next {
			sg := &b.staged[j]
			d.w.Reset()
			appendGrant(&d.w, sg.req.tag, sg.g)
			d.buf = wire.AppendFrame(d.buf, d.w.Bytes())
		}
		d.rel = run.conn.commitGrants(shard, b, run.head, d.buf, d.rel[:0])
		if d.piped {
			d.pickup.Wait()
		}
		for _, g := range d.rel {
			if err := s.svc.Release(g.Client, g.Name); err != nil {
				s.cfg.Logf("%v: releasing undeliverable grant of %d: %v",
					run.conn.conn.RemoteAddr(), g.Name, err)
				continue
			}
			released = true
		}
	}
	b.reset()
	if released {
		// The freed capacity may be the only thing standing between queued
		// acquires and an exhausted shard, and the drain that staged these
		// grants has already sampled EpochRunnable — re-kick so the epoch
		// loop observes the returns (teardown does the same for held
		// names).
		s.kick(shard)
	}
}

// svcConn is one connection's server-side state. Lock order: a shard lock
// may be taken before c.mu (grant notifies run under the shard lock), so
// c.mu must never be held across a Service call; a binding stripe is taken
// before c.mu, never after.
//
// The outbox is a pooled double buffer: response frames are encoded
// contiguously (header + body) and appended to pend in whole-burst chunks;
// the writer goroutine swaps pend with fly and flushes the batch in a
// single Write — one syscall per drained batch, the writev pattern with the
// iovecs already adjacent. Both buffers are reused for the connection's
// lifetime, so the steady-state write path allocates nothing; a whole
// epoch's grants for this connection land back-to-back in one buffer, one
// lock acquisition, one writer wakeup, and one flush.
type svcConn struct {
	srv      *Server
	conn     net.Conn
	maxQueue int         // outbound byte cap (ServerConfig.MaxConnQueue)
	gone     atomic.Bool // mirrors dead||overflow for lock-free notify checks

	mu          sync.Mutex
	cond        *sync.Cond
	dead        bool
	overflow    bool   // queue cap exceeded; connection being dropped
	pend        []byte // frames accumulating for the writer
	fly         []byte // frames being flushed; swapped with pend
	outClosed   bool
	parked      bool            // the writer waits for frames and nothing has woken it yet
	pickup      *sync.WaitGroup // the deliverer that woke the writer, until it takes its batch
	outstanding []*connReq      // in-flight acquires; each records its index (connReq.pos)
	freeReqs    []*connReq      // recycled per-request state

	// names[shard] is the first of the names bound to this connection on
	// that shard, 0 for none; the list runs through the binding table's
	// entries and is guarded, head included, by the shard's stripe.
	names []uint32
}

// connReq tracks one in-flight acquire from registration to grant. It is
// the request's GrantNotifier: GrantNotify runs under the shard lock at
// epoch close and stages the grant for coalesced delivery; refusing (once
// the connection is gone) absorbs the grant as a crash. Enqueued records
// the service request ID under the shard lock — before any epoch can grant
// and recycle the struct — so teardown can cancel still-queued requests.
type connReq struct {
	c      *svcConn
	tag    uint64
	client uint64
	id     uint64 // service request ID; 0 until enqueued
	pos    int    // index in c.outstanding while in flight
}

// GrantNotify implements GrantNotifier; it runs under the shard lock.
func (r *connReq) GrantNotify(g Grant) bool {
	if r.c.gone.Load() {
		return false
	}
	r.c.srv.deliver[g.Shard].pend.stage(r, g)
	return true
}

// Enqueued implements the service's enqueueAware extension.
func (r *connReq) Enqueued(id uint64) { r.id = id }

// admitLocked reports whether n more outbound bytes may join the outbox;
// c.mu must be held. False with tripped set means this call exceeded the
// cap and started the overflow teardown (flag, writer wakeup) — the caller
// must close the connection after unlocking, handing cleanup to the
// ordinary crash-absorption teardown: a reader that cannot keep up with
// its own responses is indistinguishable from a stalled one. False with
// tripped clear means the connection was already being torn down.
func (c *svcConn) admitLocked(n int) (ok, tripped bool) {
	if c.dead || c.outClosed || c.overflow {
		return false, false
	}
	if len(c.pend)+n > c.maxQueue {
		c.overflow = true
		c.gone.Store(true)
		c.wakeLocked()
		return false, true
	}
	return true, false
}

// wakeLocked signals the writer; c.mu must be held. It reports whether this
// call is the one that woke the writer from its idle wait — false when the
// writer is busy flushing or has already been signalled.
func (c *svcConn) wakeLocked() bool {
	woke := c.parked
	c.parked = false
	c.cond.Signal()
	return woke
}

// enqueue appends pre-encoded response frames (one or more, already length-
// prefixed) to the outbox under one lock and one writer wakeup. It reports
// false when the connection is being torn down, including the teardown
// admitLocked starts when these frames would exceed the outbound cap.
func (c *svcConn) enqueue(frames []byte) bool {
	if len(frames) == 0 {
		return true
	}
	c.mu.Lock()
	ok, tripped := c.admitLocked(len(frames))
	if !ok {
		c.mu.Unlock()
		if tripped {
			c.conn.Close() // fails the read loop, which runs teardown
		}
		return false
	}
	c.pend = append(c.pend, frames...)
	c.wakeLocked()
	c.mu.Unlock()
	return true
}

// commitGrants appends one shard's batch of pre-encoded grant frames for
// this connection, binds the granted names to it and retires their requests,
// all under the shard's binding stripe and a single connection-lock
// acquisition with a single cond-signal. It returns (appended to rel) the
// grants that can no longer be delivered — the connection died or
// overflowed after the in-epoch accept — which the caller must release back
// to the service. Teardown marks the connection dead before it walks the
// connection's names, each under its stripe, so a name bound here is always
// seen by that walk. On a piped shard, a commit that wakes the writer from
// its idle wait adds it to the shard's pickup group, which it leaves when it
// takes its batch (see deliverFly); inline delivery blocks in nothing after
// this, so it waits for no one.
func (c *svcConn) commitGrants(shard int, b *grantBatch, head int32, frames []byte, rel []Grant) []Grant {
	t := c.srv.bound
	stripe := &t.stripes[shard]
	stripe.Lock()
	c.mu.Lock()
	ok, tripped := c.admitLocked(len(frames))
	if !ok {
		c.mu.Unlock()
		stripe.Unlock()
		if tripped {
			c.conn.Close() // fails the read loop, which runs teardown
		}
		for j := head; j >= 0; j = b.staged[j].next {
			rel = append(rel, b.staged[j].g)
		}
		return rel
	}
	for j := head; j >= 0; j = b.staged[j].next {
		sg := &b.staged[j]
		req := sg.req
		c.dropOutstandingLocked(req)
		t.bind(c, shard, sg.g.Name, sg.g.Client)
		*req = connReq{c: c}
		c.freeReqs = append(c.freeReqs, req)
	}
	c.pend = append(c.pend, frames...)
	if d := &c.srv.deliver[shard]; c.wakeLocked() && d.piped {
		d.pickup.Add(1)
		c.pickup = &d.pickup
	}
	c.mu.Unlock()
	stripe.Unlock()
	return rel
}

// dropOutstandingLocked removes an in-flight request from c.outstanding by
// swapping the last one into its place; c.mu must be held.
func (c *svcConn) dropOutstandingLocked(req *connReq) {
	last := len(c.outstanding) - 1
	moved := c.outstanding[last]
	c.outstanding[req.pos] = moved
	moved.pos = req.pos
	c.outstanding[last] = nil
	c.outstanding = c.outstanding[:last]
}

// ingest is one connection's reusable burst-decoding scratch, owned by its
// read loop: the decoded ops of the current burst in frame order, the
// per-shard submission buckets, and the batched response frames.
type ingest struct {
	frames int
	w      wire.Writer // response-body encode scratch
	resp   []byte      // batched response frames for this burst

	acqTag []uint64 // decoded acquires, frame order
	acqCli []uint64
	acqReq []*connReq // registered request state; nil = rejected busy

	relTag  []uint64 // decoded releases, frame order
	relName []int

	acq    [][]AcquireOp // per-shard submission buckets
	rel    [][]ReleaseOp
	relIdx [][]int // burst index per bucketed release (for replies)
	ids    []uint64
	errs   []error
}

func newIngest(shards int) *ingest {
	return &ingest{
		acq:    make([][]AcquireOp, shards),
		rel:    make([][]ReleaseOp, shards),
		relIdx: make([][]int, shards),
	}
}

// reset clears the per-burst state, keeping every buffer's capacity.
func (in *ingest) reset() {
	in.frames = 0
	in.resp = in.resp[:0]
	in.acqTag = in.acqTag[:0]
	in.acqCli = in.acqCli[:0]
	in.acqReq = in.acqReq[:0]
	in.relTag = in.relTag[:0]
	in.relName = in.relName[:0]
	for i := range in.acq {
		in.acq[i] = in.acq[i][:0]
		in.rel[i] = in.rel[i][:0]
		in.relIdx[i] = in.relIdx[i][:0]
	}
}

// pushResp appends the frame just encoded in in.w to the burst's response
// buffer.
func (in *ingest) pushResp() {
	in.resp = wire.AppendFrame(in.resp, in.w.Bytes())
}

// newConn builds the server-side state of one accepted connection.
func (s *Server) newConn(conn net.Conn) *svcConn {
	c := &svcConn{
		srv:      s,
		conn:     conn,
		maxQueue: s.cfg.MaxConnQueue,
		names:    make([]uint32, s.svc.Shards()),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// handle runs one connection: handshake, then the batched ingestion loop —
// block for one frame, drain every complete pipelined frame behind it,
// submit the burst's shard buckets, repeat. Teardown absorbs whatever the
// connection still held.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	c := s.newConn(conn)

	defer s.teardown(c)
	s.wg.Add(1)
	go s.writeLoop(c)

	br := bufio.NewReaderSize(conn, connReadBufSize)
	var rbuf []byte
	in := newIngest(s.svc.Shards())

	// Handshake: hello in, welcome out. Bounded by its own (tight)
	// deadline so stalled half-open connections are shed quickly.
	conn.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout))
	body, err := wire.ReadFrame(br, rbuf, svcMaxFrame)
	if err != nil {
		s.cfg.Logf("%v: bad handshake: %v", conn.RemoteAddr(), err)
		return
	}
	rbuf = body
	if err := decodeSvcHello(body); err != nil {
		s.cfg.Logf("%v: rejected: %v", conn.RemoteAddr(), err)
		return
	}
	role, leader := RoleStandalone, ""
	if s.repl != nil {
		role, leader = s.repl.WireRole()
	}
	in.w.Reset()
	appendWelcome(&in.w, s.svc.Shards(), s.svc.ShardCap(), role, leader)
	in.pushResp()
	if !c.enqueue(in.resp) {
		return
	}
	in.reset()
	conn.SetReadDeadline(time.Time{})

	for {
		body, err := wire.ReadFrame(br, rbuf, svcMaxFrame)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.cfg.Logf("%v: read: %v (closing connection)", conn.RemoteAddr(), err)
			}
			return
		}
		rbuf = body
		fatal := s.ingestFrame(c, in, body)
		for !fatal && in.frames < maxIngestBurst {
			more, ok, err := wire.ReadFrameBuffered(br, rbuf, svcMaxFrame)
			if err != nil {
				s.cfg.Logf("%v: read: %v (closing connection)", conn.RemoteAddr(), err)
				fatal = true
				break
			}
			if !ok {
				break
			}
			rbuf = more
			fatal = s.ingestFrame(c, in, more)
		}
		// Submit what the burst collected even when it ends on a malformed
		// frame: the preceding frames were valid, and the per-connection
		// error discipline only condemns the connection, not its traffic.
		s.submitBurst(c, in)
		if fatal {
			return
		}
	}
}

// ingestFrame decodes one frame into the burst scratch; true means the
// connection must be closed (malformed frame or unknown op). Stats requests
// force the pending burst out first, so the reply observes every preceding
// operation, matching one-at-a-time semantics.
func (s *Server) ingestFrame(c *svcConn, in *ingest, body []byte) (fatal bool) {
	in.frames++
	op := byte(0)
	if len(body) > 0 {
		op = body[0]
	}
	switch op {
	case opAcquire:
		tag, client, err := decodeAcquire(body)
		if err != nil {
			s.cfg.Logf("%v: malformed acquire: %v (closing connection)", c.conn.RemoteAddr(), err)
			return true
		}
		if !s.admitWrite(in, tag) {
			return false
		}
		in.acqTag = append(in.acqTag, tag)
		in.acqCli = append(in.acqCli, client)
	case opRelease:
		tag, name, err := decodeRelease(body)
		if err != nil {
			s.cfg.Logf("%v: malformed release: %v (closing connection)", c.conn.RemoteAddr(), err)
			return true
		}
		if !s.admitWrite(in, tag) {
			return false
		}
		in.relTag = append(in.relTag, tag)
		in.relName = append(in.relName, name)
	case opStats:
		tag, err := decodeStatsReq(body)
		if err != nil {
			s.cfg.Logf("%v: malformed stats: %v (closing connection)", c.conn.RemoteAddr(), err)
			return true
		}
		s.submitBurst(c, in)
		if !s.admitRead(in, tag) {
			return false
		}
		st := s.svc.Stats()
		if s.repl != nil {
			st.ReplTerm, st.ReplRole, st.ElectionReason, st.CompactFloor = s.repl.WireReplStats()
		}
		in.w.Reset()
		appendStatsRep(&in.w, tag, st)
		in.pushResp()
	case opEpoch:
		tag, shard, err := decodeEpochReq(body)
		if err != nil {
			s.cfg.Logf("%v: malformed epoch: %v (closing connection)", c.conn.RemoteAddr(), err)
			return true
		}
		// Flush the burst first: an epoch close must batch every acquire
		// that preceded it on this connection, exactly the FIFO semantics
		// the replay harness depends on.
		s.submitBurst(c, in)
		if !s.admitWrite(in, tag) {
			return false
		}
		in.w.Reset()
		switch {
		case !s.cfg.ManualEpochs:
			appendReject(&in.w, tag, RejectUnsupported, "server closes epochs autonomously")
		case shard < 0 || shard >= s.svc.Shards():
			appendReject(&in.w, tag, RejectInternal,
				fmt.Sprintf("shard %d outside 0..%d", shard, s.svc.Shards()-1))
		default:
			epoch, granted, err := s.closeManualEpoch(shard)
			if err != nil {
				appendReject(&in.w, tag, RejectInternal, err.Error())
			} else {
				appendEpochRep(&in.w, tag, epoch, granted)
			}
		}
		in.pushResp()
	case opJournal:
		tag, shard, start, maxEntries, err := decodeJournalReq(body)
		if err != nil {
			s.cfg.Logf("%v: malformed journal: %v (closing connection)", c.conn.RemoteAddr(), err)
			return true
		}
		s.submitBurst(c, in)
		if !s.admitRead(in, tag) {
			return false
		}
		in.w.Reset()
		switch {
		case !s.svc.cfg.Journal:
			appendReject(&in.w, tag, RejectUnsupported, "server keeps no journal")
		case shard < 0 || shard >= s.svc.Shards():
			appendReject(&in.w, tag, RejectInternal,
				fmt.Sprintf("shard %d outside 0..%d", shard, s.svc.Shards()-1))
		default:
			win := s.svc.ShardJournal(shard)
			if maxEntries <= 0 || maxEntries > journalPageMax {
				maxEntries = journalPageMax
			}
			if start > len(win) {
				start = len(win)
			}
			end := min(start+maxEntries, len(win))
			appendJournalRep(&in.w, tag, JournalPage{
				Total:   len(win),
				Start:   start,
				Entries: win[start:end],
			})
		}
		in.pushResp()
	case opReclaim:
		tag, client, name, err := decodeReclaim(body)
		if err != nil {
			s.cfg.Logf("%v: malformed reclaim: %v (closing connection)", c.conn.RemoteAddr(), err)
			return true
		}
		// The restart handshake: re-bind a ledger-held name (a grant that
		// survived a server restart) to this connection, so it can be
		// released here. Flush the burst first so a preceding release of
		// the same name is observed, matching one-at-a-time semantics.
		s.submitBurst(c, in)
		if !s.admitWrite(in, tag) {
			return false
		}
		in.w.Reset()
		if err := s.reclaim(c, client, name); err != nil {
			appendReject(&in.w, tag, RejectNotHeld, err.Error())
		} else {
			appendReclaimed(&in.w, tag)
		}
		in.pushResp()
	default:
		s.cfg.Logf("%v: unknown op %d (closing connection)", c.conn.RemoteAddr(), op)
		return true
	}
	return false
}

// reclaim re-binds a name the ledger records as held by client to c. The
// name's stripe is held across the service call: a successful reclaim must
// install c as the binding authority — stealing the name out of the
// previous connection's list — before a racing teardown of that connection
// can release the name out from under it.
func (s *Server) reclaim(c *svcConn, client uint64, name int) error {
	shard, err := s.svc.ShardOfName(name)
	if err != nil {
		return err
	}
	stripe := &s.bound.stripes[shard]
	stripe.Lock()
	defer stripe.Unlock()
	if err := s.svc.Reclaim(client, name); err != nil {
		return err
	}
	s.bound.bind(c, shard, name, client)
	return nil
}

// admitWrite consults the commit gate before a write op joins the burst:
// on a node that does not serve writes (a replication follower) the op is
// rejected with RejectNotLeader whose message is the leader's client
// address — the redirect hint. True means proceed.
func (s *Server) admitWrite(in *ingest, tag uint64) bool {
	g := s.cfg.Gate
	if g == nil {
		return true
	}
	ok, leader := g.AdmitWrites()
	if ok {
		return true
	}
	in.w.Reset()
	appendReject(&in.w, tag, RejectNotLeader, leader)
	in.pushResp()
	return false
}

// admitRead applies the replication gate's read lease to a stats or
// journal op: a lease-stale leader rejects the read with RejectNotLeader
// rather than answer from possibly-deposed state.
func (s *Server) admitRead(in *ingest, tag uint64) bool {
	if s.repl == nil || s.repl.ReadLeaseValid() {
		return true
	}
	in.w.Reset()
	appendReject(&in.w, tag, RejectNotLeader, "")
	in.pushResp()
	return false
}

// submitBurst pushes one decoded burst into the service: releases first
// (bucketed by shard, validated against the binding table and unbound under
// that shard's stripe, one ReleaseBatch per shard), then acquires
// (registered against the outstanding cap under one lock, one AcquireBatch
// per shard), then the burst's response frames in one outbox append, with
// one epoch-loop kick per touched shard. Freed capacity is visible to the
// service before the new acquires queue, exactly as in one-at-a-time
// submission.
func (s *Server) submitBurst(c *svcConn, in *ingest) {
	if in.frames == 0 && len(in.resp) == 0 {
		return
	}
	if len(in.relTag) > 0 {
		for i, name := range in.relName {
			shard, err := s.svc.ShardOfName(name)
			if err != nil {
				s.rejectNotHeld(in, i)
				continue
			}
			in.rel[shard] = append(in.rel[shard], ReleaseOp{Name: name})
			in.relIdx[shard] = append(in.relIdx[shard], i)
		}
		for shard := range in.rel {
			if len(in.rel[shard]) == 0 {
				continue
			}
			// Only names whose entry still names this connection are its to
			// release; unbinding them is what makes a second release of the
			// same name (in this burst or a later one) NotHeld. The stripe
			// stays held across the service call, so no reclaim can bind a
			// name between its unbinding here and its release in the ledger.
			ops, idx := in.rel[shard], in.relIdx[shard]
			stripe := &s.bound.stripes[shard]
			stripe.Lock()
			kept := 0
			for j, op := range ops {
				e := &s.bound.entries[op.Name]
				if e.conn != c {
					s.rejectNotHeld(in, idx[j])
					continue
				}
				op.Client = e.client
				s.bound.unbind(shard, op.Name)
				ops[kept], idx[kept] = op, idx[j]
				kept++
			}
			ops, idx = ops[:kept], idx[:kept]
			if kept == 0 {
				stripe.Unlock()
				continue
			}
			errs, err := s.svc.ReleaseBatch(shard, ops, in.errs[:0])
			in.errs = errs[:0]
			if err != nil {
				// Unreachable (the shard index is ours), but fail closed:
				// the service processed nothing, so the connection still
				// holds every name in the bucket — restore them and reject
				// each request, mirroring the acquire path below.
				for _, op := range ops {
					s.bound.bind(c, shard, op.Name, op.Client)
				}
				stripe.Unlock()
				s.cfg.Logf("%v: release batch on shard %d: %v", c.conn.RemoteAddr(), shard, err)
				for j := range ops {
					in.w.Reset()
					appendReject(&in.w, in.relTag[idx[j]], RejectInternal, err.Error())
					in.pushResp()
				}
				continue
			}
			stripe.Unlock()
			for j, e := range errs {
				in.w.Reset()
				if e != nil {
					appendReject(&in.w, in.relTag[idx[j]], RejectInternal, e.Error())
				} else {
					appendReleased(&in.w, in.relTag[idx[j]])
				}
				in.pushResp()
			}
			s.kick(shard) // freed capacity may unblock queued acquires
		}
	}
	if len(in.acqTag) > 0 {
		c.mu.Lock()
		for i := range in.acqTag {
			if len(c.outstanding) >= s.cfg.MaxOutstanding {
				in.acqReq = append(in.acqReq, nil)
				continue
			}
			var req *connReq
			if n := len(c.freeReqs); n > 0 {
				req = c.freeReqs[n-1]
				c.freeReqs = c.freeReqs[:n-1]
			} else {
				req = &connReq{c: c}
			}
			req.tag = in.acqTag[i]
			req.client = in.acqCli[i]
			req.id = 0
			req.pos = len(c.outstanding)
			c.outstanding = append(c.outstanding, req)
			in.acqReq = append(in.acqReq, req)
		}
		c.mu.Unlock()
		for i, req := range in.acqReq {
			if req == nil {
				in.w.Reset()
				appendReject(&in.w, in.acqTag[i], RejectBusy, "too many outstanding acquires")
				in.pushResp()
				continue
			}
			shard := s.svc.Shard(req.client)
			in.acq[shard] = append(in.acq[shard], AcquireOp{Client: req.client, Notify: req})
		}
		for shard := range in.acq {
			if len(in.acq[shard]) == 0 {
				continue
			}
			ids, err := s.svc.AcquireBatch(shard, in.acq[shard], in.ids[:0])
			in.ids = ids[:0]
			if err != nil {
				// Unreachable (clients validated at decode, shards routed
				// here), but fail closed: unregister and reject the bucket.
				s.cfg.Logf("%v: acquire batch on shard %d: %v", c.conn.RemoteAddr(), shard, err)
				c.mu.Lock()
				for _, op := range in.acq[shard] {
					req := op.Notify.(*connReq)
					if !c.dead {
						c.dropOutstandingLocked(req)
					}
					in.w.Reset()
					appendReject(&in.w, req.tag, RejectInternal, err.Error())
					in.pushResp()
				}
				c.mu.Unlock()
				continue
			}
			s.kick(shard)
		}
	}
	c.enqueue(in.resp)
	in.reset()
}

// rejectNotHeld answers the burst's i-th release with RejectNotHeld: the
// name is outside the namespace, unbound, or bound to another connection.
func (s *Server) rejectNotHeld(in *ingest, i int) {
	in.w.Reset()
	appendReject(&in.w, in.relTag[i], RejectNotHeld,
		fmt.Sprintf("name %d is not held by this connection", in.relName[i]))
	in.pushResp()
}

// teardown absorbs a connection's death: queued acquires are cancelled
// (grants already racing through an epoch are refused by the gone flag, or
// released at delivery commit), and every name still bound to the connection
// is released. Uniqueness is never at risk — a name is either still free,
// released here, or absorbed inside or right after its epoch, before ever
// reaching the wire. The cost is O(names the connection holds): teardown
// walks the connection's own per-shard lists, never the table.
func (s *Server) teardown(c *svcConn) {
	c.mu.Lock()
	c.gone.Store(true)
	c.dead = true
	c.outClosed = true
	c.wakeLocked()
	cancels := c.outstanding
	c.outstanding = nil
	c.mu.Unlock()

	for _, req := range cancels {
		if req.id != 0 {
			s.svc.Cancel(req.client, req.id)
		}
	}
	for shard := range c.names {
		stripe := &s.bound.stripes[shard]
		released := false
		for {
			// Only names this connection still owns are on its list: a
			// session that reconnected and reclaimed before this teardown
			// ran has stolen the binding — and unlinked it — and releasing
			// it here would free a name the session legitimately holds. The
			// stripe spans the unbind and the release, one name at a time,
			// so a concurrent reclaim cannot interleave between them.
			stripe.Lock()
			name := int(c.names[shard])
			if name == 0 {
				stripe.Unlock()
				break
			}
			client := s.bound.entries[name].client
			s.bound.unbind(shard, name)
			err := s.svc.Release(client, name)
			stripe.Unlock()
			if err != nil {
				s.cfg.Logf("%v: teardown release of %d: %v", c.conn.RemoteAddr(), name, err)
				continue
			}
			released = true
		}
		if released {
			s.kick(shard)
		}
	}
	c.conn.Close()
	s.mu.Lock()
	if s.conns != nil {
		delete(s.conns, c.conn)
	}
	s.mu.Unlock()
}

// writeLoop drains the connection's outbox: it swaps the pending buffer
// with the flight buffer under the lock — no copying, no allocation — and
// pushes the whole contiguous batch of frames to the kernel in a single
// Write. A full epoch of grants therefore costs one syscall on this
// connection, while pushers keep filling the other buffer.
//
// Wake, then wait: behind a gate, the deliverer that woke the writer from
// its idle wait waits for it to take its batch before going on toward its
// next commit wait (see deliverLoop). The writer releases it at the swap,
// before its Write, so a slow reader's Write never holds a deliverer up.
func (s *Server) writeLoop(c *svcConn) {
	defer s.wg.Done()
	for {
		c.mu.Lock()
		woken := false
		for len(c.pend) == 0 && !c.outClosed && !c.overflow {
			c.parked = true
			c.cond.Wait()
			woken = true
		}
		if woken && s.cfg.Gate == nil {
			// Woken by the first push of an ingest burst: yield once before
			// the swap, as drainShard does before it closes an epoch.
			// Without a gate delivery is pure CPU, and the burst's release
			// acks and each shard's grant commit follow within one scheduler
			// pass, so they leave in this Write instead of one Write apiece.
			// Behind a gate there is nothing to gain — the deliverer has
			// already coalesced a whole commit wait, and waits for this swap
			// — and a yielded goroutine can sit on the global run queue for
			// as long as the processors are parked in fsync.
			c.mu.Unlock()
			runtime.Gosched()
			c.mu.Lock()
		}
		if c.pickup != nil {
			c.pickup.Done()
			c.pickup = nil
		}
		if c.overflow {
			c.mu.Unlock()
			c.conn.Close() // already closed at the overflow site; idempotent
			return
		}
		closed := c.outClosed
		batch := c.pend
		c.pend = c.fly[:0]
		c.fly = batch
		c.mu.Unlock()
		if len(batch) > 0 {
			c.conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
			if _, err := c.conn.Write(batch); err != nil {
				c.conn.Close() // unblocks the read loop, which runs teardown
				return
			}
		}
		if closed && len(batch) == 0 {
			return
		}
	}
}
