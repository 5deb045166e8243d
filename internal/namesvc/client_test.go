package namesvc

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"ballsintoleaves/internal/wire"
)

// scriptedPeer is the server half of a client-table test: it completes the
// handshake and then lets the test read request frames and write whatever
// response frames it likes — including ones no correct server would send.
type scriptedPeer struct {
	t    *testing.T
	conn net.Conn
	w    wire.Writer
	rbuf []byte
}

// dialScripted connects a Client to a fresh scriptedPeer.
func dialScripted(t *testing.T) (*Client, *scriptedPeer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan *scriptedPeer, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			accepted <- nil
			return
		}
		p := &scriptedPeer{t: t, conn: conn}
		if body := p.read(); body == nil || decodeSvcHello(body) != nil {
			conn.Close()
			accepted <- nil
			return
		}
		appendWelcome(&p.w, 1, 16, RoleStandalone, "")
		p.send()
		accepted <- p
	}()
	c, err := Dial(ln.Addr().String(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := <-accepted
	if p == nil {
		c.Close()
		t.Fatal("scripted peer: handshake failed")
	}
	t.Cleanup(func() { c.Close(); p.conn.Close(); c.Wait() })
	return c, p
}

// read returns the next request frame's body, nil once the client is gone.
func (p *scriptedPeer) read() []byte {
	body, err := wire.ReadFrame(p.conn, p.rbuf, svcMaxFrame)
	if err != nil {
		return nil
	}
	p.rbuf = body
	return body
}

// send frames and writes the body encoded in p.w.
func (p *scriptedPeer) send() {
	if _, err := p.conn.Write(wire.AppendFrame(nil, p.w.Bytes())); err != nil {
		p.t.Errorf("scripted peer: write: %v", err)
	}
	p.w.Reset()
}

// TestClientDropsResponsesWithDeadTags: a response whose tag is zero, names
// a slot the table never had, or carries a generation the slot has moved
// past (or not reached) is dropped — no panic, no callback — whatever its
// kind, and the live operation behind the same slot still completes exactly
// once, with its own response.
func TestClientDropsResponsesWithDeadTags(t *testing.T) {
	t.Parallel()
	c, p := dialScripted(t)

	var grants, releases atomic.Int32
	granted := make(chan Grant, 8)
	released := make(chan error, 8)
	if err := c.Acquire(7, func(g Grant, err error) {
		grants.Add(1)
		if err != nil {
			t.Errorf("acquire callback: %v", err)
		}
		granted <- g
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	live, _, err := decodeAcquire(p.read())
	if err != nil {
		t.Fatal(err)
	}
	dead := []uint64{
		0,                 // no slot at all
		5,                 // no slot, some generation
		1<<32 - 1,         // no slot, every generation bit
		live + 1,          // the live slot, a generation it has not reached
		live | 0xffffffff, // the live slot, the generation before its first
		live + 1<<32,      // one slot past the end of the table
		^uint64(0),        // the largest slot and generation there is
	}
	for _, tag := range dead {
		if tag == live {
			t.Fatalf("test bug: dead tag %#x is the live one", tag)
		}
		appendGrant(&p.w, tag, Grant{Name: 9, Epoch: 1})
		p.send()
		appendReleased(&p.w, tag)
		p.send()
		appendReject(&p.w, tag, RejectInternal, "not yours")
		p.send()
	}
	appendGrant(&p.w, live, Grant{Name: 3, Epoch: 1})
	p.send()
	// Responses are dispatched in order, so once the real grant arrives the
	// dead ones before it have all been handled.
	if g := <-granted; g.Name != 3 {
		t.Fatalf("granted %d: a dead tag's response reached the callback", g.Name)
	}

	// The slot is reused by the release: its old tag is now a duplicate.
	if err := c.Release(3, func(err error) {
		releases.Add(1)
		released <- err
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	reuse, _, err := decodeRelease(p.read())
	if err != nil {
		t.Fatal(err)
	}
	if reuse>>32 != live>>32 || reuse == live {
		t.Fatalf("release tag %#x after acquire tag %#x: want the same slot, a new generation", reuse, live)
	}
	appendReleased(&p.w, live) // the completed acquire's tag, replayed
	p.send()
	appendGrant(&p.w, live, Grant{Name: 9, Epoch: 1})
	p.send()
	appendReject(&p.w, live, RejectNotHeld, "stale")
	p.send()
	appendReleased(&p.w, reuse)
	p.send()
	if err := <-released; err != nil {
		t.Fatalf("release: %v (a stale tag's reject reached the callback?)", err)
	}
	appendReleased(&p.w, reuse) // and a duplicate of the release's own ack
	p.send()

	// A stats round trip fences the duplicate: it has been dropped by the
	// time the reply is dispatched.
	statsDone := make(chan error, 1)
	if err := c.Stats(func(_ Stats, err error) { statsDone <- err }); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	tag, err := decodeStatsReq(p.read())
	if err != nil {
		t.Fatal(err)
	}
	appendStatsRep(&p.w, tag, Stats{Shards: 1, ShardCap: 16, Digests: []uint64{0}})
	p.send()
	if err := <-statsDone; err != nil {
		t.Fatal(err)
	}
	if g, r := grants.Load(), releases.Load(); g != 1 || r != 1 {
		t.Fatalf("callbacks ran %d (acquire) and %d (release) times, want once each", g, r)
	}
}

// TestClientFailAllFailsEachPendingOpOnce: when the connection dies, every
// operation in flight — and none that already completed — gets the
// connection error exactly once, and the client refuses further work.
func TestClientFailAllFailsEachPendingOpOnce(t *testing.T) {
	t.Parallel()
	c, p := dialScripted(t)

	// One completed round trip first, so the table has a vacant slot whose
	// callback must not be failed again.
	done := make(chan error, 1)
	var completed atomic.Int32
	if err := c.Release(5, func(err error) { completed.Add(1); done <- err }); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	tag, _, err := decodeRelease(p.read())
	if err != nil {
		t.Fatal(err)
	}
	appendReleased(&p.w, tag)
	p.send()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	const inflight = 5
	var calls [inflight]atomic.Int32
	failed := make(chan error, 2*inflight)
	fail := func(i int) func(error) {
		return func(err error) { calls[i].Add(1); failed <- err }
	}
	ops := []func() error{
		func() error { return c.Acquire(1, func(_ Grant, err error) { fail(0)(err) }) },
		func() error { return c.Release(2, fail(1)) },
		func() error { return c.Stats(func(_ Stats, err error) { fail(2)(err) }) },
		func() error { return c.Reclaim(3, 4, fail(3)) },
		func() error { return c.Acquire(5, func(_ Grant, err error) { fail(4)(err) }) },
	}
	for _, op := range ops {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for range ops {
		if p.read() == nil {
			t.Fatal("scripted peer: request stream ended early")
		}
	}
	p.conn.Close()
	c.Wait() // the read loop has exited: every callback that will run has run
	close(failed)
	n := 0
	for err := range failed {
		n++
		if !errors.Is(err, ErrClientClosed) {
			t.Errorf("pending op failed with %v, want ErrClientClosed", err)
		}
	}
	if n != inflight {
		t.Errorf("%d failures delivered for %d pending ops", n, inflight)
	}
	for i := range calls {
		if got := calls[i].Load(); got != 1 {
			t.Errorf("op %d's callback ran %d times, want once", i, got)
		}
	}
	if got := completed.Load(); got != 1 {
		t.Errorf("the completed op's callback ran %d times, want once", got)
	}
	if err := c.Acquire(9, func(Grant, error) {}); !errors.Is(err, ErrClientClosed) {
		t.Errorf("acquire on a failed client: %v, want ErrClientClosed", err)
	}
}
