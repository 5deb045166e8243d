package namesvc

import (
	"bufio"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ballsintoleaves/internal/wire"
)

// A connection's server side: handler, outbox, writer, in-flight requests
// and teardown. Locks, in ARCHITECTURE's "Lock order, stated once": binding
// stripe → c.mu (commitGrants); binding stripe → shard lock (teardown's
// Release); c.mu alone elsewhere, never across a Service call (a shard lock
// may be taken before it); Server.mu alone. The writer ends a deliverer's
// pickup wait under c.mu, at its swap, before any Write.

// connReadBufSize is each connection's read buffer: large enough that one
// kernel read delivers a deep pipelined burst for the ingestion loop to
// drain in a single pass.
const connReadBufSize = 64 << 10

// svcConn is one connection's server-side state. The outbox is a pooled
// double buffer: response frames are encoded contiguously (header + body)
// and appended to pend in whole-burst chunks; the writer goroutine swaps
// pend with fly and flushes the batch in a single Write — one syscall per
// drained batch, the writev pattern with the iovecs already adjacent. Both
// buffers are reused for the connection's lifetime, so the steady-state
// write path allocates nothing; a whole epoch's grants for this connection
// land back-to-back in one buffer, one lock acquisition, one writer wakeup,
// and one flush.
type svcConn struct {
	srv      *Server
	conn     net.Conn
	maxQueue int           // outbound byte cap (ServerConfig.MaxConnQueue)
	gone     atomic.Bool   // mirrors dead||overflow for lock-free notify checks
	bursts   atomic.Uint64 // bursts ingested; counted behind a gate only (deliverLoop)
	// Behind a gate: bursts as of the latest delivery to the connection, on
	// any shard (a later burst answers it), and per shard the swap sequence
	// number of the batch in flight holding grants for it, 0 for none.
	marked atomic.Uint64
	flying []atomic.Uint64

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

// Refused implements the service's refuseAware extension; it runs under the
// shard lock. The request is staged like a grant; the failed shard's
// delivery then rejects it with the rest of its batch, carrying the failure
// (Server.discard). A connection already gone gets nothing: its teardown
// has taken its requests.
func (r *connReq) Refused(shard int) {
	if !r.c.gone.Load() {
		b := r.c.srv.deliver[shard].pend
		b.stage(r, Grant{Shard: shard})
		b.refused = true
	}
}

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
// seen by that walk. A commit that wakes the writer from its idle wait adds
// it to the shard's pickup group, which it leaves at its swap (deliverFly).
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
	if c.wakeLocked() {
		d := &c.srv.deliver[shard]
		d.pickup.Add(1)
		c.pickup = &d.pickup
	}
	c.mu.Unlock()
	stripe.Unlock()
	return rel
}

// commitRejects appends the pre-encoded reject frames of one shard's
// discarded grants for this connection and retires their requests, under a
// single connection-lock acquisition with a single cond-signal (see
// Server.discard). A connection already being torn down gets nothing: its
// teardown cancels what it still holds.
func (c *svcConn) commitRejects(b *grantBatch, head int32, frames []byte) {
	c.mu.Lock()
	ok, tripped := c.admitLocked(len(frames))
	if !ok {
		c.mu.Unlock()
		if tripped {
			c.conn.Close() // fails the read loop, which runs teardown
		}
		return
	}
	for j := head; j >= 0; j = b.staged[j].next {
		req := b.staged[j].req
		c.dropOutstandingLocked(req)
		*req = connReq{c: c}
		c.freeReqs = append(c.freeReqs, req)
	}
	c.pend = append(c.pend, frames...)
	c.wakeLocked()
	c.mu.Unlock()
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

// newConn builds the server-side state of one accepted connection.
func (s *Server) newConn(conn net.Conn) *svcConn {
	c := &svcConn{
		srv:      s,
		conn:     conn,
		maxQueue: s.cfg.MaxConnQueue,
		names:    make([]uint32, s.svc.Shards()),
	}
	if s.answerWait {
		c.flying = make([]atomic.Uint64, s.svc.Shards())
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// markDelivered records that a delivery is about to reach the connection:
// its next burst answers it. Shards deliver concurrently, so the mark only
// rises.
func (c *svcConn) markDelivered() {
	b := c.bursts.Load()
	for m := c.marked.Load(); m < b && !c.marked.CompareAndSwap(m, b); m = c.marked.Load() {
	}
}

// flyingBefore reports whether a shard other than this one has a batch for
// the connection in flight that it took under swap sequence seq or earlier.
func (c *svcConn) flyingBefore(shard int, seq uint64) bool {
	for t := range c.flying {
		if q := c.flying[t].Load(); t != shard && q != 0 && q <= seq {
			return true
		}
	}
	return false
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
		if s.answerWait {
			c.bursts.Add(1)
			s.wakeAnswerWaiters()
		}
		if fatal {
			return
		}
	}
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
	if s.answerWait {
		s.wakeAnswerWaiters() // a closed connection has answered
	}

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
// Wake, then wait (see deliverLoop): the writer releases the deliverer that
// woke it at the swap, before its Write, so a slow reader's Write never
// holds a deliverer up.
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
			// the swap, as drainShard does before it closes an epoch, so the
			// burst's release acks and grant commits, which follow within one
			// scheduler pass, share this Write. It keys on the gate because
			// only without one do they follow that closely: measured, the
			// yield is worth 10 % of volatile-closed p95. Behind a gate a
			// yielded goroutine can sit on the global run queue for as long
			// as the processors are parked in fsync.
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
