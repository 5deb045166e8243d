package namesvc

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The server's configuration, commit-gate seam and lifecycle; the rest is
// split by lock domain into delivery.go, conn.go and ingest.go. Locks, in
// ARCHITECTURE's "Lock order, stated once": the delivery lock alone (Close
// wakes an epoch loop waiting on a full window); Server.mu alone.

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
	// so a new leader re-granting those names is safe. Each shard's
	// deliverer calls it, so different shards' waits overlap, and never
	// twice at once for one shard. Once the shard has failed it must
	// return an error (SyncShard's sticky failure).
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
// segment. A failed shard's wait returns its failure, so its grants are
// discarded (the failure policy in durability.go).
type groupGate struct{ svc *Service }

func (g groupGate) AdmitWrites() (bool, string)   { return true, "" }
func (g groupGate) WaitCommitted(shard int) error { return g.svc.SyncShard(shard) }

// GroupGate returns the commit gate a standalone server over a durable
// service uses (NewServer picks it when ServerConfig.Gate is nil): a
// shard's grants are delivered only after a flush covers their records,
// every epoch closed during one flush sharing the next, and different
// shards' flushes overlapping; shards that serve the same connections start
// theirs together (the server's wait for the answers). Under FsyncPerEpoch
// every append has synced, so the wait returns at once. Exported for
// callers that decorate it.
func GroupGate(svc *Service) CommitGate { return groupGate{svc} }

// ServerConfig parameterizes a Server.
type ServerConfig struct {
	// Service is the allocation core to serve. Required.
	Service *Service
	// Gate, when non-nil, is the external commit rule (see CommitGate):
	// replication quorum or group-commit fsync. Nil means the service's
	// own: GroupGate when it is durable, otherwise no gating.
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
	if cfg.Gate == nil && cfg.Service.cfg.Durable != nil {
		// A grant waits for the flush covering its record, and is discarded
		// if the shard has failed.
		cfg.Gate = groupGate{cfg.Service}
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
// runs the shards' epoch loops, and renders connection failures onto the
// service's crash-absorption semantics — a connection that dies with queued
// acquires cancels them (or lets their grants be absorbed), and every name
// the connection held is released, so names never leak to dead clients.
//
// The front end is batched end to end: a connection's handler submits each
// pipelined burst per shard under one shard lock with one epoch-loop kick,
// and each shard is a close ∥ commit → deliver pipeline whose deliverer
// appends a connection's grant frames to its outbox under one lock with one
// writer wakeup (see shardDelivery).
type Server struct {
	cfg     ServerConfig
	svc     *Service
	repl    ReplGate        // cfg.Gate's replication extension; nil when standalone
	workers int             // epoch loops; shard s is driven by loop s%workers
	kicks   []chan struct{} // one binary semaphore per epoch loop
	deliver []shardDelivery
	// manualMu serializes manual epoch closes per shard (ManualEpochs mode):
	// with no epoch loop and no deliverer, a shard's delivery stage belongs
	// to whichever connection sent the epoch op.
	manualMu []sync.Mutex
	stop     chan struct{}
	once     sync.Once
	wg       sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]chan struct{} // conn -> closed when its handler is done

	// bound is the server-wide binding authority: which connection a granted
	// name is currently deliverable/releasable on (see bindTable).
	bound *bindTable

	// answerWait: a deliverer waits for the answers before its next commit
	// wait (deliverLoop) — behind a gate, with epoch loops.
	answerWait bool
	swaps      atomic.Uint64 // batches the deliverers took into flight, behind a gate
}

// NewServer builds a Server and starts its goroutines: one deliverer per
// shard, and min(GOMAXPROCS, shards) epoch loops, loop w owning the stripe
// of shards w, w+loops, … — on machines with fewer cores than shards, one
// wakeup then drains several shards, instead of paying a goroutine handoff
// per shard per burst for parallelism the hardware cannot deliver. With
// ManualEpochs there are neither.
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
	s.answerWait = cfg.Gate != nil && workers > 0
	for i := range s.deliver {
		d := &s.deliver[i]
		d.pend, d.fly = newGrantBatch(), newGrantBatch()
		d.cond.L = &d.mu
		if s.answerWait {
			d.timer = time.AfterFunc(time.Hour, func() {
				d.mu.Lock()
				d.cond.Broadcast()
				d.mu.Unlock()
			})
			d.timer.Stop()
		}
		if workers > 0 {
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

// stopping reports whether Close has begun.
func (s *Server) stopping() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}
