package namesvc

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ballsintoleaves/internal/wire"
)

// ErrClientClosed is reported (wrapped) by client operations and pending
// callbacks once the connection is gone.
var ErrClientClosed = errors.New("namesvc: client closed")

// RejectError is a server reject mapped onto the Go error surface.
type RejectError struct {
	Code RejectCode
	Msg  string
}

// Error implements error.
func (e *RejectError) Error() string {
	return fmt.Sprintf("namesvc: rejected (%v): %s", e.Code, e.Msg)
}

// ClientConfig parameterizes Dial.
type ClientConfig struct {
	// Timeout bounds the dial, the handshake, and every write. Zero means
	// 30 seconds. Reads are unbounded: a quiet server is a server with no
	// grants to hand out yet.
	Timeout time.Duration
	// FlushInterval is the write-coalescing window: operations buffer their
	// frames and a background flusher pushes them at this cadence, so a
	// pipelining caller pays one syscall per window, not per operation.
	// Zero means 200µs; Flush forces the buffer out immediately.
	FlushInterval time.Duration
}

func (c *ClientConfig) normalize() {
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 200 * time.Microsecond
	}
}

// pendingOp is one in-flight request awaiting its response frame. It is
// stored by value in a slot of the client's pending table, and slots are
// recycled through a free list — so registering and completing operations
// leaves no per-op garbage on the steady state
// (TestClientSteadyStateZeroAllocs).
type pendingOp struct {
	onGrant   func(Grant, error)
	onRelease func(error)
	onStats   func(Stats, error)
	onReclaim func(error)
	onEpoch   func(epoch uint64, granted int, err error)
	onJournal func(JournalPage, error)
}

// fail invokes whichever callback is set with the error.
func (p pendingOp) fail(err error) {
	switch {
	case p.onGrant != nil:
		p.onGrant(Grant{}, err)
	case p.onRelease != nil:
		p.onRelease(err)
	case p.onStats != nil:
		p.onStats(Stats{}, err)
	case p.onReclaim != nil:
		p.onReclaim(err)
	case p.onEpoch != nil:
		p.onEpoch(0, 0, err)
	case p.onJournal != nil:
		p.onJournal(JournalPage{}, err)
	}
}

// pendingSlot is one entry of the client's pending table. A request's wire
// tag is its slot index plus one in the high half and the slot's generation
// at registration in the low half (still an opaque uvarint to the server,
// which only echoes it). The generation is bumped every time the slot is
// vacated, so a response whose tag is stale, duplicated, zero or out of
// range matches no live slot and is dropped — it can never reach the
// callback of the operation that reuses the slot.
type pendingSlot struct {
	op   pendingOp
	gen  uint32
	live bool
	next int32 // next free slot while vacant; -1 ends the list
}

// Client is a pipelining connection to a name service Server. Operations
// are asynchronous: they enqueue a frame and return; the response invokes
// the callback on the client's read goroutine, so callbacks must be fast
// and must not block on the client's own responses (issuing further
// operations from a callback is fine and is how closed-loop drivers chain).
// Sync convenience wrappers are provided for tests and simple callers.
type Client struct {
	conn     net.Conn
	cfg      ClientConfig
	shards   int
	shardCap int
	role     Role
	leader   string // leader client address from the welcome; "" if none

	wmu   sync.Mutex
	bw    *bufio.Writer
	w     wire.Writer // frame-body scratch, guarded by wmu
	fbuf  []byte      // framed-bytes scratch, guarded by wmu
	dirty bool
	werr  error

	mu    sync.Mutex
	slots []pendingSlot // pending table; a tag names a slot and its generation
	free  int32         // head of the vacant-slot list; -1 when none
	rerr  error

	closed   chan struct{}
	readDone chan struct{}
	once     sync.Once
}

// Dial connects, performs the hello/welcome handshake, and starts the read
// and flush loops.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	cfg.normalize()
	conn, err := net.DialTimeout("tcp", addr, cfg.Timeout)
	if err != nil {
		return nil, err
	}
	c := &Client{
		conn:     conn,
		cfg:      cfg,
		bw:       bufio.NewWriterSize(conn, 32<<10),
		free:     -1,
		closed:   make(chan struct{}),
		readDone: make(chan struct{}),
	}
	c.w.Reset()
	appendSvcHello(&c.w)
	conn.SetWriteDeadline(time.Now().Add(cfg.Timeout))
	if err := wire.WriteFrame(c.bw, c.w.Bytes()); err != nil {
		conn.Close()
		return nil, fmt.Errorf("namesvc: hello: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		conn.Close()
		return nil, fmt.Errorf("namesvc: hello: %w", err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	conn.SetReadDeadline(time.Now().Add(cfg.Timeout))
	body, err := wire.ReadFrame(br, nil, svcMaxFrame)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("namesvc: awaiting welcome: %w", err)
	}
	if c.shards, c.shardCap, c.role, c.leader, err = decodeWelcome(body); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetReadDeadline(time.Time{})
	go c.readLoop(br, body)
	go c.flushLoop()
	return c, nil
}

// Shards returns the server's shard count.
func (c *Client) Shards() int { return c.shards }

// ShardCap returns the server's per-shard namespace size.
func (c *Client) ShardCap() int { return c.shardCap }

// Capacity returns the server's total namespace size.
func (c *Client) Capacity() int { return c.shards * c.shardCap }

// Role returns the server's replication role at handshake time.
func (c *Client) Role() Role { return c.role }

// LeaderHint returns the leader client address the server advertised in
// its welcome — empty on a standalone server, on the leader itself, and
// on a follower that does not currently know a leader. Writes rejected
// after a leadership change carry the fresher hint in the RejectNotLeader
// message. Session follows both hints across failover.
func (c *Client) LeaderHint() string { return c.leader }

// Close tears the connection down; every in-flight callback fails with a
// wrapped ErrClientClosed.
func (c *Client) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.conn.Close()
}

// Wait blocks until the read goroutine has exited and therefore no further
// callback will run — the synchronization point for callers that aggregate
// callback-owned state after Close.
func (c *Client) Wait() { <-c.readDone }

// Acquire requests a name for the given client ID; cb receives the grant
// (or the reject/connection error) on the read goroutine. The fast path is
// allocation-free: the frame is encoded straight into the connection's
// write buffer, with no per-op closure or callback box.
func (c *Client) Acquire(client uint64, cb func(Grant, error)) error {
	if client == 0 {
		return fmt.Errorf("namesvc: client ID must be non-zero")
	}
	return c.send(pendingOp{onGrant: cb}, opAcquire, client, 0, 0)
}

// Release returns a held name; cb receives nil on success.
func (c *Client) Release(name int, cb func(error)) error {
	return c.send(pendingOp{onRelease: cb}, opRelease, 0, uint64(name), 0)
}

// Stats requests the server's counters.
func (c *Client) Stats(cb func(Stats, error)) error {
	return c.send(pendingOp{onStats: cb}, opStats, 0, 0, 0)
}

// Reclaim re-binds a name the service's ledger already records as held by
// the given client — the restart handshake against a durable server: after
// a crash, recovered grants belong to no connection until their clients
// reclaim them. cb receives nil on success, after which the name can be
// released on this connection.
func (c *Client) Reclaim(client uint64, name int, cb func(error)) error {
	if client == 0 {
		return fmt.Errorf("namesvc: client ID must be non-zero")
	}
	return c.send(pendingOp{onReclaim: cb}, opReclaim, client, uint64(name), 0)
}

// Epoch asks a manual-epoch server (ServerConfig.ManualEpochs) to close
// exactly one epoch on the given shard. The reply carries the shard's epoch
// counter after the close and the number of grants it accepted; because the
// server appends the epoch's grant frames before the reply, every grant of
// the epoch destined for this connection has already been dispatched when
// cb runs. Ordinary servers reject the op with RejectUnsupported.
func (c *Client) Epoch(shard int, cb func(epoch uint64, granted int, err error)) error {
	if shard < 0 {
		return fmt.Errorf("namesvc: shard must be >= 0, got %d", shard)
	}
	return c.send(pendingOp{onEpoch: cb}, opEpoch, uint64(shard), 0, 0)
}

// Journal fetches one page of a journaling server's retained journal window
// for a shard: up to maxEntries entries starting at position start (the
// server caps a page at its frame budget, so the reply may be shorter —
// page callers advance by len(Entries) until Start+len(Entries) == Total).
// Servers without Config.Journal reject the op with RejectUnsupported.
func (c *Client) Journal(shard, start, maxEntries int, cb func(JournalPage, error)) error {
	if shard < 0 || start < 0 || maxEntries < 0 {
		return fmt.Errorf("namesvc: journal request shard %d start %d max %d", shard, start, maxEntries)
	}
	return c.send(pendingOp{onJournal: cb}, opJournal, uint64(shard), uint64(start), uint64(maxEntries))
}

// send registers the pending op, then encodes and buffers its request
// frame. The op is selected by wire tag rather than a fill closure so the
// per-op path allocates nothing; registration comes first so a response
// racing the flusher always finds its callback.
func (c *Client) send(p pendingOp, op byte, arg, arg2, arg3 uint64) error {
	tag, err := c.register(p)
	if err != nil {
		return err
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		c.dropPending(tag)
		return c.werr
	}
	c.w.Reset()
	switch op {
	case opAcquire:
		appendAcquire(&c.w, tag, arg)
	case opRelease:
		appendRelease(&c.w, tag, int(arg2))
	case opStats:
		appendStatsReq(&c.w, tag)
	case opReclaim:
		appendReclaim(&c.w, tag, arg, int(arg2))
	case opEpoch:
		appendEpochReq(&c.w, tag, int(arg))
	case opJournal:
		appendJournalReq(&c.w, tag, int(arg), int(arg2), int(arg3))
	}
	return c.writeLocked(tag)
}

// await is the body of every *Sync wrapper: start issues one op whose
// callback reports through done, flush pushes it onto the wire, and await
// returns what the callback reported — or start's or flush's error.
func await[T any](start func(done func(T, error)) error, flush func() error) (T, error) {
	type result struct {
		v   T
		err error
	}
	ch := make(chan result, 1)
	var zero T
	if err := start(func(v T, err error) { ch <- result{v, err} }); err != nil {
		return zero, err
	}
	if err := flush(); err != nil {
		return zero, err
	}
	r := <-ch
	return r.v, r.err
}

// acked adapts an await callback to an op that reports only an error.
func acked(done func(struct{}, error)) func(error) {
	return func(err error) { done(struct{}{}, err) }
}

// AcquireSync acquires and waits for the grant.
func (c *Client) AcquireSync(client uint64) (Grant, error) {
	return await(func(done func(Grant, error)) error { return c.Acquire(client, done) }, c.Flush)
}

// ReleaseSync releases and waits for the acknowledgement.
func (c *Client) ReleaseSync(name int) error {
	_, err := await(func(done func(struct{}, error)) error { return c.Release(name, acked(done)) }, c.Flush)
	return err
}

// ReclaimSync reclaims and waits for the acknowledgement.
func (c *Client) ReclaimSync(client uint64, name int) error {
	_, err := await(func(done func(struct{}, error)) error {
		return c.Reclaim(client, name, acked(done))
	}, c.Flush)
	return err
}

// EpochSync closes one epoch on a manual-epoch server and waits for the
// reply. When it returns, every grant the epoch handed to this connection
// has already been dispatched to its Acquire callback.
func (c *Client) EpochSync(shard int) (epoch uint64, granted int, err error) {
	type reply struct {
		epoch   uint64
		granted int
	}
	r, err := await(func(done func(reply, error)) error {
		return c.Epoch(shard, func(epoch uint64, granted int, err error) { done(reply{epoch, granted}, err) })
	}, c.Flush)
	return r.epoch, r.granted, err
}

// JournalSync fetches a shard's entire retained journal window, paging until
// the server reports no further entries.
func (c *Client) JournalSync(shard int) ([]Entry, error) {
	var entries []Entry
	for start := 0; ; {
		page, err := await(func(done func(JournalPage, error)) error {
			return c.Journal(shard, start, journalPageMax, done)
		}, c.Flush)
		if err != nil {
			return nil, err
		}
		entries = append(entries, page.Entries...)
		start += len(page.Entries)
		if start >= page.Total || len(page.Entries) == 0 {
			return entries, nil
		}
	}
}

// StatsSync fetches the server's counters.
func (c *Client) StatsSync() (Stats, error) { return await(c.Stats, c.Flush) }

// register records the pending op in a vacant slot (growing the table only
// when every slot is in flight) and returns its tag. It runs before the
// frame is buffered, so a response racing the flusher always finds its
// callback.
func (c *Client) register(op pendingOp) (tag uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rerr != nil {
		return 0, c.rerr
	}
	i := c.free
	if i >= 0 {
		c.free = c.slots[i].next
	} else {
		i = int32(len(c.slots))
		c.slots = append(c.slots, pendingSlot{})
	}
	sl := &c.slots[i]
	sl.op, sl.live = op, true
	return uint64(i+1)<<32 | uint64(sl.gen), nil
}

// writeLocked frames c.w's bytes into the write buffer; c.wmu must be held
// and c.werr already checked. On a write error the registration is dropped.
// The frame is staged in the client's reusable buffer rather than through
// wire.WriteFrame, whose stack header would escape into a per-op heap
// allocation; the steady-state send path touches no memory it does not own.
func (c *Client) writeLocked(tag uint64) error {
	c.fbuf = wire.AppendFrame(c.fbuf[:0], c.w.Bytes())
	if c.bw.Available() < len(c.fbuf) {
		// This write will spill to the socket; deadlines are absolute and
		// the one armed by the last flush may long since have expired on
		// an idle connection, so re-arm before the implicit flush.
		c.conn.SetWriteDeadline(time.Now().Add(c.cfg.Timeout))
	}
	if _, err := c.bw.Write(c.fbuf); err != nil {
		c.werr = err
		c.dropPending(tag)
		return err
	}
	c.dirty = true
	return nil
}

// dropPending removes a registration whose frame never made it out.
func (c *Client) dropPending(tag uint64) { c.takePending(tag) }

// Flush forces buffered frames onto the wire.
func (c *Client) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	if !c.dirty {
		return nil
	}
	c.conn.SetWriteDeadline(time.Now().Add(c.cfg.Timeout))
	if err := c.bw.Flush(); err != nil {
		c.werr = err
		return err
	}
	c.dirty = false
	return nil
}

// flushLoop pushes buffered frames every FlushInterval until Close.
func (c *Client) flushLoop() {
	ticker := time.NewTicker(c.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-ticker.C:
			c.Flush() // a write error surfaces through the read loop too
		}
	}
}

// readLoop dispatches response frames to their callbacks; on any error it
// fails every pending operation.
//
// It is also the client's write clock: before blocking for the next
// response it flushes the write buffer. Callbacks issue follow-up
// operations (the closed-loop chaining pattern), so the moment the response
// stream runs dry — every callback of the burst has run — is exactly when
// the next generation of requests is complete and should hit the wire as
// one batch. Pipelined request/response traffic therefore self-clocks,
// with the FlushInterval ticker only backstopping sends issued outside any
// callback.
func (c *Client) readLoop(br *bufio.Reader, rbuf []byte) {
	defer close(c.readDone)
	for {
		if br.Buffered() == 0 {
			c.Flush() // a write error surfaces through the read loop too
		}
		body, err := wire.ReadFrame(br, rbuf, svcMaxFrame)
		if err != nil {
			c.failAll(fmt.Errorf("%w: %v", ErrClientClosed, err))
			return
		}
		rbuf = body
		if err := c.dispatch(body); err != nil {
			c.failAll(fmt.Errorf("%w: %v", ErrClientClosed, err))
			c.conn.Close()
			return
		}
	}
}

// dispatch decodes one response frame and invokes its callback.
func (c *Client) dispatch(body []byte) error {
	op := byte(0)
	if len(body) > 0 {
		op = body[0]
	}
	switch op {
	case opGrant:
		tag, g, err := decodeGrant(body)
		if err != nil {
			return err
		}
		if p, ok := c.takePending(tag); ok && p.onGrant != nil {
			p.onGrant(g, nil)
		}
	case opReleased:
		tag, err := decodeReleased(body)
		if err != nil {
			return err
		}
		if p, ok := c.takePending(tag); ok && p.onRelease != nil {
			p.onRelease(nil)
		}
	case opStatsRep:
		tag, st, err := decodeStatsRep(body)
		if err != nil {
			return err
		}
		if p, ok := c.takePending(tag); ok && p.onStats != nil {
			p.onStats(st, nil)
		}
	case opReclaimed:
		tag, err := decodeReclaimed(body)
		if err != nil {
			return err
		}
		if p, ok := c.takePending(tag); ok && p.onReclaim != nil {
			p.onReclaim(nil)
		}
	case opEpochRep:
		tag, epoch, granted, err := decodeEpochRep(body)
		if err != nil {
			return err
		}
		if p, ok := c.takePending(tag); ok && p.onEpoch != nil {
			p.onEpoch(epoch, granted, nil)
		}
	case opJournalRep:
		tag, page, err := decodeJournalRep(body)
		if err != nil {
			return err
		}
		if p, ok := c.takePending(tag); ok && p.onJournal != nil {
			p.onJournal(page, nil)
		}
	case opReject:
		tag, code, msg, err := decodeReject(body)
		if err != nil {
			return err
		}
		if p, ok := c.takePending(tag); ok {
			p.fail(&RejectError{Code: code, Msg: msg})
		}
	default:
		return fmt.Errorf("namesvc: unexpected op %d from server", op)
	}
	return nil
}

// takePending claims the pending op for a tag and vacates its slot; false
// means the tag names no live slot of the current generation.
func (c *Client) takePending(tag uint64) (pendingOp, bool) {
	i, gen := tag>>32, uint32(tag)
	c.mu.Lock()
	defer c.mu.Unlock()
	if i == 0 || i > uint64(len(c.slots)) {
		return pendingOp{}, false
	}
	sl := &c.slots[i-1]
	if !sl.live || sl.gen != gen {
		return pendingOp{}, false
	}
	return c.vacateLocked(int32(i - 1)), true
}

// vacateLocked empties a live slot onto the free list, advancing its
// generation, and returns the op it held; c.mu must be held.
func (c *Client) vacateLocked(i int32) pendingOp {
	sl := &c.slots[i]
	p := sl.op
	*sl = pendingSlot{gen: sl.gen + 1, next: c.free}
	c.free = i
	return p
}

// failAll fails every pending op and poisons the client.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if c.rerr == nil {
		c.rerr = err
	}
	var pend []pendingOp
	for i := range c.slots {
		if c.slots[i].live {
			pend = append(pend, c.vacateLocked(int32(i)))
		}
	}
	c.mu.Unlock()
	for _, p := range pend {
		p.fail(err)
	}
	c.once.Do(func() { close(c.closed) })
}
