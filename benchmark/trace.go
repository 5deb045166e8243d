package main

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/namesvc/durable"
	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/stats"
)

// The tracer times the server from outside, at the four public seams it
// already calls through: namesvc.Runner, durable.Sink/File,
// namesvc.CommitGate and net.Listener/net.Conn. Each decorator forwards
// every call unchanged (TestDecoratorsTransparent pins identical digests),
// adds to its own totals, and logs a span while the bounded span log has
// room. Totals cover every call inside the measure window; the span log is
// the first spanCap calls of each kind, kept for inspection.

type spanKind int

const (
	spanAssign spanKind = iota
	spanSinkWrite
	spanSinkSync
	spanCommitWait
	spanConnRead
	spanConnWrite
	spanAcquire
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"runner.assign", "sink.write", "sink.sync", "commit.wait", "conn.read", "conn.write", "acquire",
}

// spanCap bounds the spans kept per kind: enough to see several checkpoint
// cycles of the slow kinds without the log's memory or its write-out at exit
// distorting the run it describes.
const spanCap = 1 << 14

// span is one timed call. Times are nanoseconds since tracer.base; id is the
// shard (runner, sink, commit) or the connection (conn, acquire); parent is
// the ref of the span that encloses it on the same shard, 0 for none.
type span struct {
	start, end int64
	id         int32
	parent     spanRef
}

// spanRef names a logged span: kind in the high half, 1+index in the low.
type spanRef int64

func makeRef(k spanKind, idx int64) spanRef { return spanRef(int64(k)<<32 | (idx + 1)) }

const waitUnlogged spanRef = -1

type spanLog struct {
	n   atomic.Int64
	buf []span
}

type tracer struct {
	base time.Time
	// on gates every decorator: totals and spans cover only the measure
	// window of the traced run, not set-up, warm-up or teardown.
	on   atomic.Bool
	logs [numSpanKinds]spanLog
	// openWait[shard] is the commit.wait span in progress on that shard, so a
	// sink.sync that runs inside it can name its parent: its ref, waitUnlogged
	// when the span log had no room for it, 0 when no wait is in progress.
	openWait []atomic.Int64

	mu      sync.Mutex
	runners []*tracedRunner // one per forked shard runner, in shard order
	sinks   []*tracedSink
	gate    *tracedGate
	conns   []*tracedConn // server side of every accepted client connection

	peerBytes atomic.Int64 // bytes crossing the replication listeners
}

func newTracer(base time.Time, shards int) *tracer {
	t := &tracer{base: base, openWait: make([]atomic.Int64, shards)}
	for k := range t.logs {
		t.logs[k].buf = make([]span, spanCap)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// reserve claims a slot in the span log, or -1 when the kind's log is full.
func (t *tracer) reserve(k spanKind) int64 {
	l := &t.logs[k]
	if l.n.Load() >= spanCap {
		return -1
	}
	idx := l.n.Add(1) - 1
	if idx >= spanCap {
		return -1
	}
	return idx
}

func (t *tracer) fill(k spanKind, idx int64, s span) {
	if idx >= 0 {
		t.logs[k].buf[idx] = s
	}
}

func (t *tracer) record(k spanKind, s span) { t.fill(k, t.reserve(k), s) }

// spans returns the logged spans of one kind.
func (t *tracer) spans(k spanKind) []span {
	return t.logs[k].buf[:min(t.logs[k].n.Load(), spanCap)]
}

// ---- namesvc.Runner ----

// tracedRunner times Assign. It implements Fork so the Service still gets
// one private engine per shard and CohortRunner's per-shard cohort cache
// survives the decoration.
type tracedRunner struct {
	inner namesvc.Runner
	t     *tracer
	shard int32

	// Written only by the shard's epoch goroutine (Assign runs under the
	// shard lock); read after the server has closed.
	epochs, grants, busyNs int64
	batch                  stats.Histogram
}

// runner decorates the configured (unforked) runner.
func (t *tracer) runner(inner namesvc.Runner) namesvc.Runner {
	return &tracedRunner{inner: inner, t: t, shard: -1}
}

func (r *tracedRunner) Name() string { return r.inner.Name() }

// Fork mirrors namesvc's forkRunner: stateful runners are forked, stateless
// ones shared. The Service forks once per shard, in shard order.
func (r *tracedRunner) Fork() namesvc.Runner {
	inner := r.inner
	if f, ok := inner.(interface{ Fork() namesvc.Runner }); ok {
		inner = f.Fork()
	}
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	fr := &tracedRunner{inner: inner, t: r.t, shard: int32(len(r.t.runners))}
	r.t.runners = append(r.t.runners, fr)
	return fr
}

func (r *tracedRunner) Assign(seed uint64, labels []proto.ID, ranks []int) error {
	if !r.t.on.Load() {
		return r.inner.Assign(seed, labels, ranks)
	}
	start := r.t.now()
	err := r.inner.Assign(seed, labels, ranks)
	end := r.t.now()
	r.epochs++
	r.grants += int64(len(labels))
	r.busyNs += end - start
	r.batch.Record(int64(len(labels)))
	r.t.record(spanAssign, span{start: start, end: end, id: r.shard})
	return err
}

// ---- durable.Sink / durable.File ----

// tracedSink wraps one shard's sink and every File it creates. A shard's
// sink is only touched under that shard's lock, so the totals need no
// synchronisation of their own.
type tracedSink struct {
	inner durable.Sink
	t     *tracer
	shard int32

	appends, appendNs   int64 // WAL segment writes: one per record
	bytes               int64 // every byte written, snapshots included
	walSyncs            int64 // fsyncs of a WAL segment
	syncs, syncNs       int64 // every fsync: segment, snapshot, directory
	nestedSyncNs        int64 // the part of syncNs inside a commit.wait on this shard
	syncHist            stats.Histogram
	realSyncHist        stats.Histogram // the fsyncs themselves, under the steadySink's floor
	overFloor           int64           // fsyncs that took longer than the floor
	checkpoints         int64
	checkpointNs        int64
	checkpointStartedAt int64 // Create("snap-…") of the checkpoint in progress
}

func (t *tracer) sink(inner durable.Sink, shard int) *tracedSink {
	s := &tracedSink{inner: inner, t: t, shard: int32(shard)}
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.mu.Unlock()
	return s
}

// observeDisk has the modelled disk report each flush's real duration here.
func (s *tracedSink) observeDisk(disk *steadySink) {
	disk.observe = func(real time.Duration) {
		if !s.t.on.Load() {
			return
		}
		s.realSyncHist.Record(int64(real))
		if real > disk.floor {
			s.overFloor++
		}
	}
}

func (s *tracedSink) Create(name string) (durable.File, error) {
	f, err := s.inner.Create(name)
	if err != nil {
		return nil, err
	}
	snap := strings.HasPrefix(name, "snap-")
	if snap {
		s.checkpointStartedAt = s.t.now()
	}
	return &tracedFile{inner: f, sink: s, snap: snap}, nil
}

func (s *tracedSink) ReadAll(name string) ([]byte, error) { return s.inner.ReadAll(name) }
func (s *tracedSink) List() ([]string, error)             { return s.inner.List() }
func (s *tracedSink) Remove(name string) error            { return s.inner.Remove(name) }
func (s *tracedSink) Sync() error                         { return s.timeSync(s.inner.Sync) }

// timeSync runs one fsync and returns its error; while tracing it also
// records the duration and the commit.wait it ran inside, if any.
func (s *tracedSink) timeSync(sync func() error) error {
	if !s.t.on.Load() {
		return sync()
	}
	start := s.t.now()
	err := sync()
	end := s.t.now()
	s.syncs++
	s.syncNs += end - start
	s.syncHist.Record(end - start)
	parent := spanRef(s.t.openWait[s.shard].Load())
	if parent != 0 {
		s.nestedSyncNs += end - start
	}
	if parent == waitUnlogged {
		parent = 0
	}
	s.t.record(spanSinkSync, span{start: start, end: end, id: s.shard, parent: parent})
	return err
}

type tracedFile struct {
	inner durable.File
	sink  *tracedSink
	snap  bool // a snapshot file; otherwise a WAL segment
}

func (f *tracedFile) Write(p []byte) (int, error) {
	s := f.sink
	if !s.t.on.Load() {
		return f.inner.Write(p)
	}
	start := s.t.now()
	n, err := f.inner.Write(p)
	end := s.t.now()
	s.bytes += int64(n)
	if !f.snap {
		s.appends++
		s.appendNs += end - start
		s.t.record(spanSinkWrite, span{start: start, end: end, id: s.shard})
	}
	return n, err
}

func (f *tracedFile) Sync() error {
	s := f.sink
	err := s.timeSync(f.inner.Sync)
	if s.t.on.Load() {
		if f.snap {
			s.checkpoints++
			s.checkpointNs += s.t.now() - s.checkpointStartedAt
		} else {
			s.walSyncs++
		}
	}
	return err
}

func (f *tracedFile) Close() error { return f.inner.Close() }

// ---- namesvc.CommitGate ----

// gateShard is one shard's WaitCommitted totals, written only by the
// goroutine closing that shard's epochs.
type gateShard struct {
	waits, waitNs int64
	hist          stats.Histogram
}

type tracedGate struct {
	inner  namesvc.CommitGate
	t      *tracer
	shards []gateShard
}

// replGate is the set of optional CommitGate extensions the Server looks
// for by type assertion. Only repl.Node has them, and it has all three;
// GroupGate has none.
type replGate interface {
	WireRole() (namesvc.Role, string)
	ReadLeaseValid() bool
	WireReplStats() (term uint64, role namesvc.Role, reason string, compactFloor uint64)
}

// tracedReplGate adds the extensions back, so a decorated repl.Node still
// reports its role in the welcome, gates reads on its lease and annotates
// the stats reply.
type tracedReplGate struct {
	*tracedGate
	repl replGate
}

func (g tracedReplGate) WireRole() (namesvc.Role, string) { return g.repl.WireRole() }
func (g tracedReplGate) ReadLeaseValid() bool             { return g.repl.ReadLeaseValid() }
func (g tracedReplGate) WireReplStats() (uint64, namesvc.Role, string, uint64) {
	return g.repl.WireReplStats()
}

// commitGate decorates a gate, keeping whichever extensions it has.
func (t *tracer) commitGate(inner namesvc.CommitGate) namesvc.CommitGate {
	g := &tracedGate{inner: inner, t: t, shards: make([]gateShard, len(t.openWait))}
	t.mu.Lock()
	t.gate = g
	t.mu.Unlock()
	if rg, ok := inner.(replGate); ok {
		return tracedReplGate{tracedGate: g, repl: rg}
	}
	return g
}

func (g *tracedGate) AdmitWrites() (bool, string) { return g.inner.AdmitWrites() }

func (g *tracedGate) WaitCommitted(shard int) error {
	t := g.t
	if !t.on.Load() {
		return g.inner.WaitCommitted(shard)
	}
	idx := t.reserve(spanCommitWait)
	open := waitUnlogged
	if idx >= 0 {
		open = makeRef(spanCommitWait, idx)
	}
	t.openWait[shard].Store(int64(open))
	start := t.now()
	err := g.inner.WaitCommitted(shard)
	end := t.now()
	t.openWait[shard].Store(0)
	gs := &g.shards[shard]
	gs.waits++
	gs.waitNs += end - start
	gs.hist.Record(end - start)
	t.fill(spanCommitWait, idx, span{start: start, end: end, id: int32(shard)})
	return err
}

// ---- net.Listener / net.Conn ----

// tracedListener decorates the client listener: every accepted connection
// is timed on its server side.
type tracedListener struct {
	net.Listener
	t *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.t.mu.Lock()
	defer l.t.mu.Unlock()
	tc := &tracedConn{Conn: c, t: l.t, id: int32(len(l.t.conns))}
	l.t.conns = append(l.t.conns, tc)
	return tc, nil
}

// tracedConn is the server side of one client connection. The handler
// goroutine is the only reader and the connection's writeLoop the only
// writer, so each direction's totals have one owner.
type tracedConn struct {
	net.Conn
	t  *tracer
	id int32

	reads, readBytes            int64
	writes, writeBytes, writeNs int64
}

func (c *tracedConn) Read(p []byte) (int, error) {
	if !c.t.on.Load() {
		return c.Conn.Read(p)
	}
	start := c.t.now()
	n, err := c.Conn.Read(p)
	end := c.t.now()
	c.reads++
	c.readBytes += int64(n)
	c.t.record(spanConnRead, span{start: start, end: end, id: c.id})
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if !c.t.on.Load() {
		return c.Conn.Write(p)
	}
	start := c.t.now()
	n, err := c.Conn.Write(p)
	end := c.t.now()
	c.writes++
	c.writeBytes += int64(n)
	c.writeNs += end - start
	c.t.record(spanConnWrite, span{start: start, end: end, id: c.id})
	return n, err
}

// countingListener decorates a replication listener: it only counts the
// bytes its accepted links carry, in both directions. Every peer link is
// accepted by exactly one node, so the three listeners together see all
// replication traffic once.
type countingListener struct {
	net.Listener
	t *tracer
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, t: l.t}, nil
}

type countingConn struct {
	net.Conn
	t *tracer
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.t.on.Load() {
		c.t.peerBytes.Add(int64(n))
	}
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.t.on.Load() {
		c.t.peerBytes.Add(int64(n))
	}
	return n, err
}
