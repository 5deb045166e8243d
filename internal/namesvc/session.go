package namesvc

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ballsintoleaves/internal/rng"
)

// ErrOpTimeout is the error a Session op fails with when it cannot
// complete within SessionConfig.OpTimeout across however many
// reconnects fit in that window.
var ErrOpTimeout = errors.New("namesvc: session op timed out")

// ErrSessionClosed wraps ErrClientClosed for ops rejected because the
// session itself was closed; errors.Is(err, ErrClientClosed) holds.
var ErrSessionClosed = fmt.Errorf("%w: session closed", ErrClientClosed)

// SessionConfig parameterizes DialSession.
type SessionConfig struct {
	// Addrs are the cluster's client addresses, tried in order (after any
	// fresher leader hint) on every connect. Required, at least one.
	Addrs []string
	// Client is the per-connection configuration (timeout and flush
	// window).
	Client ClientConfig
	// OpTimeout bounds every operation end to end: an op that cannot
	// complete within it — across connection failures, redirects, and
	// retries — fails with ErrOpTimeout, and a timeout of an in-flight op
	// condemns the connection (the only way to notice an asymmetric
	// partition, where requests flow and responses vanish). Zero means 10s.
	OpTimeout time.Duration
	// ConnectTimeout bounds DialSession's initial connect across every
	// address and election wait. Zero means 30s. Reconnects after the
	// first success are unbounded: the session rides out any partition
	// and per-op timeouts bound what callers observe.
	ConnectTimeout time.Duration
	// BackoffBase/BackoffMax shape the reconnect backoff: delays double
	// from Base to Max with seed-deterministic jitter. Zero means
	// 25ms / 1s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed feeds the jitter stream, making reconnect timing reproducible
	// for a given seed (internal/adversary's determinism contract).
	Seed uint64
	// OnReconnect, when non-nil, observes every successful (re)connect:
	// the address reached and the attempt count this round took.
	OnReconnect func(addr string, attempt int)
	// OnGrantLost, when non-nil, observes every acknowledged grant the
	// session could not re-attach after a reconnect: the server revoked
	// it (connection-death absorption) while the session was away. This
	// is the hook duplicate detectors use to keep their accounting exact
	// across reconnects.
	OnGrantLost func(client uint64, name int)
	// Logf, when non-nil, receives session lifecycle log lines.
	Logf func(format string, args ...any)
}

func (cfg *SessionConfig) normalize() error {
	if len(cfg.Addrs) == 0 {
		return errors.New("namesvc: SessionConfig.Addrs is required")
	}
	if cfg.OpTimeout <= 0 {
		cfg.OpTimeout = 10 * time.Second
	}
	if cfg.ConnectTimeout <= 0 {
		cfg.ConnectTimeout = 30 * time.Second
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return nil
}

// SessionCounters are a Session's cumulative resilience statistics.
type SessionCounters struct {
	Reconnects uint64 // successful (re)connects after the first
	Redirects  uint64 // leader hints followed
	Reclaimed  uint64 // grants re-attached via reclaim after a reconnect
	Lost       uint64 // grants the server revoked while the session was away
	Retries    uint64 // ops resubmitted after a connection failure
	Timeouts   uint64 // ops failed with ErrOpTimeout
}

// Add accumulates d into c, field by field.
func (c *SessionCounters) Add(d SessionCounters) {
	c.Reconnects += d.Reconnects
	c.Redirects += d.Redirects
	c.Reclaimed += d.Reclaimed
	c.Lost += d.Lost
	c.Retries += d.Retries
	c.Timeouts += d.Timeouts
}

const (
	sessAcquire = iota
	sessRelease
	sessStats
)

// sessOp is one session operation: it survives connection failures by
// being requeued and resubmitted until it completes, times out, or fails
// with a semantic (non-connection) error.
type sessOp struct {
	kind     int
	client   uint64
	name     int
	deadline time.Time
	attempts int
	timedOut bool

	gcb func(Grant, error)
	ecb func(error)
	scb func(Stats, error)
}

// Session is a resilient client: a Client that survives the death of its
// connection. It reconnects with exponential backoff + jitter, follows
// leader hints (the welcome's role and RejectNotLeader redirects),
// bounds every op with a timeout, and — the part that keeps the
// exactly-once story intact — re-attaches every acknowledged grant via
// the reclaim op before resubmitting any queued work, so a grant
// acknowledged before a failover is recovered, never re-acquired.
//
// Retry safety: acquires are safely retried because an undelivered grant
// is revoked by the server's connection-death absorption before its name
// can be re-granted, and a release can never free another connection's
// grant because the server validates releases against the connection's own
// holdings.
//
// Release contract: a release of a name this session was granted never
// fails NotHeld. When the server revoked the grant while the session was
// away (reported through OnGrantLost), the release completes with nil
// whether it was issued before or after the report — the name is not held
// here, which is the release's goal — and one issued after the report
// never reaches the wire, so it cannot free a newer grant of the same
// name: the session keeps one credit per lost grant until a release
// consumes it. A retried release answered NotHeld succeeds for the same
// reason (the first attempt landed and its ack was lost). Only a release of
// a name the session never held, or has already released, fails NotHeld.
type Session struct {
	cfg SessionConfig

	mu           sync.Mutex
	c            *Client        // current connection; nil while reconnecting
	held         map[int]uint64 // acknowledged grants: name -> client
	lost         map[int]int    // grants reported lost and not yet released, per name
	queue        []*sessOp      // awaiting (re)submission
	inflight     map[*sessOp]struct{}
	hint         string // freshest leader hint
	reconnecting bool
	closed       bool
	counters     SessionCounters
	jitter       *rng.Source
	shards       int
	shardCap     int

	done chan struct{} // closed by Close; stops janitor and backoff waits
	wg   sync.WaitGroup
}

// DialSession connects to the first reachable leader among cfg.Addrs
// (following hints through elections within cfg.ConnectTimeout) and
// starts the session machinery. After it returns, the session heals
// itself: callers never re-dial.
func DialSession(cfg SessionConfig) (*Session, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	cfg.Addrs = append([]string(nil), cfg.Addrs...)
	s := &Session{
		cfg:      cfg,
		held:     make(map[int]uint64),
		lost:     make(map[int]int),
		inflight: make(map[*sessOp]struct{}),
		jitter:   rng.New(rng.DeriveSeed(cfg.Seed, 0x5e55)),
		done:     make(chan struct{}),
	}
	deadline := time.Now().Add(cfg.ConnectTimeout)
	backoff := cfg.BackoffBase
	for attempt := 1; ; attempt++ {
		c, addr := s.tryConnect()
		if c != nil {
			s.install(c, addr, attempt)
			break
		}
		if time.Now().Add(backoff).After(deadline) {
			close(s.done)
			return nil, fmt.Errorf("namesvc: no leader reachable within %v (addrs %v)",
				cfg.ConnectTimeout, cfg.Addrs)
		}
		time.Sleep(s.jitterBackoff(backoff))
		if backoff *= 2; backoff > cfg.BackoffMax {
			backoff = cfg.BackoffMax
		}
	}
	s.wg.Add(1)
	go s.janitor()
	return s, nil
}

// Shards returns the cluster's shard count (from the latest welcome).
func (s *Session) Shards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards
}

// ShardCap returns the per-shard capacity (from the latest welcome).
func (s *Session) ShardCap() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shardCap
}

// Capacity returns the total name-space size.
func (s *Session) Capacity() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards * s.shardCap
}

// Counters returns a snapshot of the session's resilience statistics.
func (s *Session) Counters() SessionCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// Held returns a copy of the session's acknowledged, unreleased grants
// (name -> client).
func (s *Session) Held() map[int]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]uint64, len(s.held))
	for n, c := range s.held {
		out[n] = c
	}
	return out
}

// Acquire requests a name for client; cb observes the grant or the
// failure. The op rides through reconnects until it completes or its
// OpTimeout expires.
func (s *Session) Acquire(client uint64, cb func(Grant, error)) error {
	return s.start(&sessOp{kind: sessAcquire, client: client, gcb: cb})
}

// Release returns a granted name; cb observes completion (see the release
// contract on Session). For a grant already reported lost, cb runs before
// Release returns.
func (s *Session) Release(name int, cb func(error)) error {
	return s.start(&sessOp{kind: sessRelease, name: name, ecb: cb})
}

// Stats requests service statistics; cb observes the reply.
func (s *Session) Stats(cb func(Stats, error)) error {
	return s.start(&sessOp{kind: sessStats, scb: cb})
}

// AcquireSync is Acquire + Flush + wait.
func (s *Session) AcquireSync(client uint64) (Grant, error) {
	return await(func(done func(Grant, error)) error { return s.Acquire(client, done) }, s.push)
}

// ReleaseSync is Release + Flush + wait.
func (s *Session) ReleaseSync(name int) error {
	_, err := await(func(done func(struct{}, error)) error { return s.Release(name, acked(done)) }, s.push)
	return err
}

// StatsSync is Stats + Flush + wait.
func (s *Session) StatsSync() (Stats, error) { return await(s.Stats, s.push) }

// push is Flush for the *Sync wrappers, which wait past its error: an op
// on a session requeues when its connection fails, and its callback
// reports the outcome.
func (s *Session) push() error {
	s.Flush()
	return nil
}

// Flush pushes buffered frames on the current connection, if any.
func (s *Session) Flush() error {
	s.mu.Lock()
	c := s.c
	s.mu.Unlock()
	if c == nil {
		return nil
	}
	return c.Flush()
}

// Close tears the session down: queued ops fail with ErrSessionClosed,
// in-flight ops fail as their connection dies, and no reconnect follows.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	c := s.c
	s.c = nil
	pend := s.queue
	s.queue = nil
	s.mu.Unlock()
	close(s.done)
	if c != nil {
		c.Close()
	}
	for _, op := range pend {
		s.failOp(op, ErrSessionClosed)
	}
	return nil
}

// Wait blocks until every session goroutine has exited and no further
// callbacks will be invoked. Call after Close.
func (s *Session) Wait() {
	<-s.done
	s.wg.Wait()
	s.mu.Lock()
	c := s.c
	s.mu.Unlock()
	if c != nil {
		c.Wait()
	}
}

// start queues or submits one op.
func (s *Session) start(op *sessOp) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	if _, held := s.held[op.name]; op.kind == sessRelease && !held && s.takeLostLocked(op.name) {
		// Nothing of this grant is left at the server; whatever holds the
		// name there now is a newer grant, which this must not free.
		s.mu.Unlock()
		op.ecb(nil)
		return nil
	}
	op.deadline = time.Now().Add(s.cfg.OpTimeout)
	if s.c == nil {
		s.queue = append(s.queue, op)
		s.mu.Unlock()
		return nil
	}
	s.submitLocked(s.c, op)
	s.mu.Unlock()
	return nil
}

// submitLocked registers op in flight and hands it to c. s.mu held.
func (s *Session) submitLocked(c *Client, op *sessOp) {
	op.attempts++
	s.inflight[op] = struct{}{}
	var err error
	switch op.kind {
	case sessAcquire:
		err = c.Acquire(op.client, func(g Grant, e error) { s.completeGrant(op, g, e) })
	case sessRelease:
		err = c.Release(op.name, func(e error) { s.completeErr(op, e) })
	case sessStats:
		err = c.Stats(func(st Stats, e error) { s.completeStats(op, st, e) })
	}
	if err != nil {
		// The connection died under us: park the op for the next one.
		delete(s.inflight, op)
		s.queue = append(s.queue, op)
		s.kickReconnectLocked("")
	}
}

func (s *Session) completeGrant(op *sessOp, g Grant, err error) {
	s.mu.Lock()
	delete(s.inflight, op)
	if err == nil {
		s.held[g.Name] = op.client
		s.mu.Unlock()
		op.gcb(g, nil)
		return
	}
	s.failOrRetryLocked(op, err)
}

func (s *Session) completeErr(op *sessOp, err error) {
	s.mu.Lock()
	delete(s.inflight, op)
	if err == nil {
		if op.kind == sessRelease {
			delete(s.held, op.name)
		}
		s.mu.Unlock()
		op.ecb(nil)
		return
	}
	s.failOrRetryLocked(op, err)
}

func (s *Session) completeStats(op *sessOp, st Stats, err error) {
	s.mu.Lock()
	delete(s.inflight, op)
	if err == nil {
		s.mu.Unlock()
		op.scb(st, nil)
		return
	}
	s.failOrRetryLocked(op, err)
}

// failOrRetryLocked decides an op's fate on error: requeue + reconnect
// for connection-level failures and leader redirects, user-visible
// failure for everything else. Called with s.mu held; unlocks it.
func (s *Session) failOrRetryLocked(op *sessOp, err error) {
	if op.timedOut {
		s.counters.Timeouts++
		// The janitor condemned the connection over this op; start the
		// replacement now rather than waiting for the next op to fail.
		s.kickReconnectLocked("")
		s.mu.Unlock()
		s.failOp(op, ErrOpTimeout)
		return
	}
	if s.closed {
		s.mu.Unlock()
		s.failOp(op, err)
		return
	}
	var rej *RejectError
	switch {
	case errors.As(err, &rej) && rej.Code == RejectNotLeader:
		s.counters.Redirects++
		s.queue = append(s.queue, op)
		s.kickReconnectLocked(rej.Msg)
		s.mu.Unlock()
	case errors.As(err, &rej) && rej.Code == RejectNotHeld &&
		op.kind == sessRelease && (s.takeLostLocked(op.name) || op.attempts > 1):
		// The release contract (see Session): the server revoked the grant
		// while we were away, with this release already issued, or an
		// earlier attempt landed and its ack was lost. Both end with the
		// name not held here — the release's goal — so this is success.
		delete(s.held, op.name)
		s.mu.Unlock()
		op.ecb(nil)
	case errors.Is(err, ErrClientClosed):
		s.counters.Retries++
		s.queue = append(s.queue, op)
		s.kickReconnectLocked("")
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.failOp(op, err)
	}
}

// takeLostLocked consumes one lost-grant credit for name, reporting
// whether there was one. s.mu held.
func (s *Session) takeLostLocked(name int) bool {
	if s.lost[name] == 0 {
		return false
	}
	if s.lost[name]--; s.lost[name] == 0 {
		delete(s.lost, name)
	}
	return true
}

// failOp invokes op's callback with err.
func (s *Session) failOp(op *sessOp, err error) {
	switch op.kind {
	case sessAcquire:
		op.gcb(Grant{}, err)
	case sessRelease:
		op.ecb(err)
	case sessStats:
		op.scb(Stats{}, err)
	}
}

// kickReconnectLocked condemns the current connection (if any) and
// ensures exactly one reconnect loop is running. s.mu held.
func (s *Session) kickReconnectLocked(hint string) {
	if hint != "" {
		s.hint = hint
	}
	if s.closed {
		return
	}
	old := s.c
	s.c = nil
	if s.reconnecting {
		if old != nil {
			old.Close()
		}
		return
	}
	s.reconnecting = true
	s.wg.Add(1)
	go s.reconnect(old)
}

// reconnect drains the dead connection, then dials until a leader
// accepts, re-attaches every acknowledged grant via reclaim, and only
// then resubmits queued ops. Runs until success or session close.
func (s *Session) reconnect(old *Client) {
	defer s.wg.Done()
	if old != nil {
		old.Close()
		// Wait flushes the old connection's callbacks: every in-flight op
		// has been requeued (or failed) before the reclaim pass runs, so
		// a retried release cannot overtake its own reclaim.
		old.Wait()
	}
	backoff := s.cfg.BackoffBase
	for attempt := 1; ; attempt++ {
		s.mu.Lock()
		if s.closed {
			pend := s.queue
			s.queue = nil
			s.reconnecting = false
			s.mu.Unlock()
			for _, op := range pend {
				s.failOp(op, ErrSessionClosed)
			}
			return
		}
		s.mu.Unlock()
		c, addr := s.tryConnect()
		if c != nil {
			s.install(c, addr, attempt)
			return
		}
		wait := s.jitterBackoff(backoff)
		if backoff *= 2; backoff > s.cfg.BackoffMax {
			backoff = s.cfg.BackoffMax
		}
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-s.done:
			t.Stop()
		}
	}
}

// tryConnect walks the candidate addresses once (freshest hint first),
// looking for a node that serves writes and accepts the session's
// reclaim pass. It returns nil when no candidate worked this round.
func (s *Session) tryConnect() (*Client, string) {
	s.mu.Lock()
	hint := s.hint
	s.mu.Unlock()
	cand := make([]string, 0, len(s.cfg.Addrs)+1)
	if hint != "" {
		cand = append(cand, hint)
	}
	for _, a := range s.cfg.Addrs {
		if a != hint {
			cand = append(cand, a)
		}
	}
	for _, addr := range cand {
		c, err := Dial(addr, s.cfg.Client)
		if err != nil {
			continue
		}
		if c.Role() == RoleFollower {
			if h := c.LeaderHint(); h != "" {
				s.mu.Lock()
				s.hint = h
				s.mu.Unlock()
			}
			c.Close()
			c.Wait()
			continue
		}
		if !s.reattach(c) {
			c.Close()
			c.Wait()
			continue
		}
		return c, addr
	}
	return nil, ""
}

// reattach runs the reclaim pass on a fresh connection: every
// acknowledged grant is re-bound to it, exactly once, before any queued
// op is resubmitted. Grants the server revoked while the session was
// away are dropped and reported via OnGrantLost. False means the
// connection is unusable (died mid-pass, or turned out not to lead).
func (s *Session) reattach(c *Client) bool {
	s.mu.Lock()
	type heldGrant struct {
		name   int
		client uint64
	}
	grants := make([]heldGrant, 0, len(s.held))
	for n, cl := range s.held {
		grants = append(grants, heldGrant{n, cl})
	}
	s.mu.Unlock()
	sort.Slice(grants, func(i, j int) bool { return grants[i].name < grants[j].name })
	for _, g := range grants {
		err := c.ReclaimSync(g.client, g.name)
		if err == nil {
			s.mu.Lock()
			s.counters.Reclaimed++
			s.mu.Unlock()
			continue
		}
		var rej *RejectError
		if errors.As(err, &rej) {
			switch rej.Code {
			case RejectNotHeld:
				// Revoked by connection-death absorption while we were
				// away; surface it so duplicate accounting stays exact.
				s.mu.Lock()
				delete(s.held, g.name)
				s.lost[g.name]++
				s.counters.Lost++
				s.mu.Unlock()
				s.cfg.Logf("session: grant %d (client %d) lost across reconnect: %v",
					g.name, g.client, err)
				if s.cfg.OnGrantLost != nil {
					s.cfg.OnGrantLost(g.client, g.name)
				}
				continue
			case RejectNotLeader:
				s.mu.Lock()
				if rej.Msg != "" {
					s.hint = rej.Msg
				}
				s.mu.Unlock()
				return false
			}
		}
		return false
	}
	return true
}

// install publishes a connection that passed the reclaim pass and
// resubmits every queued op on it.
func (s *Session) install(c *Client, addr string, attempt int) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		c.Wait()
		return
	}
	first := s.shards == 0
	s.c = c
	s.shards, s.shardCap = c.Shards(), c.ShardCap()
	s.hint = addr // the node we are on serves writes; remember it
	s.reconnecting = false
	if !first {
		s.counters.Reconnects++
	}
	pend := s.queue
	s.queue = nil
	for _, op := range pend {
		s.submitLocked(c, op)
	}
	s.mu.Unlock()
	c.Flush()
	s.cfg.Logf("session: connected to %s (attempt %d, %d ops resubmitted)", addr, attempt, len(pend))
	if s.cfg.OnReconnect != nil {
		s.cfg.OnReconnect(addr, attempt)
	}
}

// jitterBackoff returns backoff plus up to one backoff of deterministic
// jitter, decorrelating reconnect stampedes across sessions.
func (s *Session) jitterBackoff(backoff time.Duration) time.Duration {
	s.mu.Lock()
	j := time.Duration(s.jitter.Uint64n(uint64(backoff)))
	s.mu.Unlock()
	return backoff + j
}

// janitor enforces per-op deadlines: an expired queued op fails
// directly; an expired in-flight op condemns its connection (closing it
// fails every pending op, requeueing the healthy ones), which is what
// surfaces asymmetric partitions where requests flow but replies never
// come back.
func (s *Session) janitor() {
	defer s.wg.Done()
	tick := s.cfg.OpTimeout / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
		}
		now := time.Now()
		var expired []*sessOp
		var condemned *Client
		s.mu.Lock()
		for op := range s.inflight {
			if now.After(op.deadline) {
				op.timedOut = true
				condemned = s.c
			}
		}
		keep := s.queue[:0]
		for _, op := range s.queue {
			if now.After(op.deadline) {
				s.counters.Timeouts++
				expired = append(expired, op)
			} else {
				keep = append(keep, op)
			}
		}
		s.queue = keep
		s.mu.Unlock()
		for _, op := range expired {
			s.failOp(op, ErrOpTimeout)
		}
		if condemned != nil {
			// Closing fails every pending op on the read goroutine: the
			// timed-out ones surface ErrOpTimeout, the rest requeue and
			// trigger the reconnect.
			s.cfg.Logf("session: op deadline exceeded, condemning connection")
			condemned.Close()
		}
	}
}
