package namesvc

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ballsintoleaves/internal/wire"
)

// startServer brings up a Service+Server on a loopback socket and returns
// the service, the address, and a cleanup-registered server.
func startServer(t *testing.T, cfg Config) (*Service, string) {
	return startServerWith(t, cfg, ServerConfig{})
}

// startServerWith is startServer with explicit server options (Service and
// Logf are filled in).
func startServerWith(t *testing.T, cfg Config, scfg ServerConfig) (*Service, string) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Service = svc
	scfg.Logf = t.Logf
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ln.Close()
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return svc, ln.Addr().String()
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServerEndToEndOverSockets is the real-socket acceptance test: epochs
// of acquire/release traffic over TCP with uniqueness and reuse-only-after-
// release checked continuously, plus stats and reject behaviour.
func TestServerEndToEndOverSockets(t *testing.T) {
	t.Parallel()
	svc, addr := startServer(t, Config{Shards: 2, ShardCap: 8, Seed: 5})
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Shards() != 2 || c.ShardCap() != 8 {
		t.Fatalf("welcome advertised %d x %d", c.Shards(), c.ShardCap())
	}

	active := map[int]uint64{}
	everHeld := map[int]bool{}
	released := map[int]bool{}
	acquire := func(client uint64) Grant {
		t.Helper()
		g, err := c.AcquireSync(client)
		if err != nil {
			t.Fatalf("acquire for %d: %v", client, err)
		}
		if _, dup := active[g.Name]; dup {
			t.Fatalf("name %d granted while held", g.Name)
		}
		if everHeld[g.Name] && !released[g.Name] {
			t.Fatalf("name %d reused without release", g.Name)
		}
		active[g.Name] = client
		everHeld[g.Name] = true
		delete(released, g.Name)
		return g
	}
	release := func(g Grant) {
		t.Helper()
		if err := c.ReleaseSync(g.Name); err != nil {
			t.Fatalf("release of %d: %v", g.Name, err)
		}
		delete(active, g.Name)
		released[g.Name] = true
	}

	// Three waves of churn; every sync acquire closes at least one epoch.
	var wave []Grant
	for client := uint64(1); client <= 10; client++ {
		wave = append(wave, acquire(client))
	}
	for _, g := range wave[:5] {
		release(g)
	}
	for client := uint64(21); client <= 25; client++ {
		acquire(client)
	}
	for _, g := range wave[5:] {
		release(g)
	}
	for client := uint64(31); client <= 33; client++ {
		acquire(client)
	}

	st, err := c.StatsSync()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epochs < 3 {
		t.Fatalf("only %d epochs over the socket run", st.Epochs)
	}
	if st.Assigned != len(active) {
		t.Fatalf("server says %d assigned, client holds %d", st.Assigned, len(active))
	}
	if st.Grants < 18 || st.Releases < 10 {
		t.Fatalf("grants %d releases %d, want >= 18 / >= 10", st.Grants, st.Releases)
	}

	// Releasing a name this connection does not hold is a clean reject.
	err = c.ReleaseSync(1 + (len(active) << 10)) // certainly unheld, maybe out of range
	var rej *RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("foreign release: %v, want RejectError", err)
	}
	_ = svc
}

// TestServerDisconnectReleasesAndCancels: a connection that dies while
// holding names and with queued acquires leaves no residue — held names are
// released, queued requests never consume capacity, and the namespace
// remains fully grantable with no duplicates.
func TestServerDisconnectReleasesAndCancels(t *testing.T) {
	t.Parallel()
	svc, addr := startServer(t, Config{Shards: 2, ShardCap: 4, Seed: 11})
	c1, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	// c1 fills the whole namespace: pick client IDs routed to each shard.
	byShard := map[int][]uint64{}
	for client := uint64(1); len(byShard[0]) < 4 || len(byShard[1]) < 4; client++ {
		s := svc.Shard(client)
		if len(byShard[s]) < 4 {
			byShard[s] = append(byShard[s], client)
		}
	}
	grants := map[uint64]Grant{}
	seen := map[int]bool{}
	for _, clients := range byShard {
		for _, client := range clients {
			g, err := c1.AcquireSync(client)
			if err != nil {
				t.Fatal(err)
			}
			if seen[g.Name] {
				t.Fatalf("duplicate name %d", g.Name)
			}
			seen[g.Name] = true
			grants[client] = g
		}
	}

	// c2 queues an acquire against the full namespace, then dies: the
	// request must be cancelled (or its eventual grant absorbed), never
	// holding capacity.
	c2, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	victim := byShard[0][0]
	if err := c2.Acquire(victim+1000, func(Grant, error) {}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "queued acquire", func() bool { return svc.Stats().Pending == 1 })
	c2.Close()
	waitFor(t, "cancel on disconnect", func() bool { return svc.Stats().Pending == 0 })

	// c1 frees one name; a client routed to that shard must be able to
	// re-acquire exactly it.
	freedClient := byShard[0][0]
	freed := grants[freedClient]
	if err := c1.ReleaseSync(freed.Name); err != nil {
		t.Fatal(err)
	}
	g, err := c1.AcquireSync(freedClient)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != freed.Name {
		t.Fatalf("backfill granted %d, want the freed %d", g.Name, freed.Name)
	}

	// c3 holds two names and dies; the server must release them.
	c3, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before := svc.Stats().Assigned
	if before != svc.Capacity() {
		t.Fatalf("namespace not full before c3: %d of %d", before, svc.Capacity())
	}
	// Free two names for c3 to take, via fresh client IDs routed to the
	// same shard.
	for _, client := range byShard[1][:2] {
		if err := c1.ReleaseSync(grants[client].Name); err != nil {
			t.Fatal(err)
		}
	}
	fresh := make([]uint64, 0, 2)
	for client := uint64(5000); len(fresh) < 2; client++ {
		if svc.Shard(client) == 1 {
			fresh = append(fresh, client)
		}
	}
	for _, client := range fresh {
		if _, err := c3.AcquireSync(client); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.Stats().Assigned; got != svc.Capacity() {
		t.Fatalf("assigned = %d after c3's acquires, want full %d", got, svc.Capacity())
	}
	c3.Close()
	waitFor(t, "disconnect releasing held names", func() bool {
		return svc.Stats().Assigned == svc.Capacity()-2
	})
}

// TestServerMalformedFrameClosesOnlyThatConnection pins the per-connection
// error discipline on the service protocol.
func TestServerMalformedFrameClosesOnlyThatConnection(t *testing.T) {
	t.Parallel()
	svc, addr := startServer(t, Config{ShardCap: 4, Seed: 2})
	good, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if _, err := good.AcquireSync(7); err != nil {
		t.Fatal(err)
	}

	// A raw connection sends a valid hello, then a truncated acquire body.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var w wire.Writer
	appendSvcHello(&w)
	if err := wire.WriteFrame(raw, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(raw, nil, svcMaxFrame); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	if err := wire.WriteFrame(raw, []byte{opAcquire, 0x80}); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(raw, nil, svcMaxFrame); err == nil {
		t.Fatal("server kept the connection after a malformed frame")
	}

	// The well-behaved connection is unaffected.
	if _, err := good.AcquireSync(8); err != nil {
		t.Fatalf("good connection broken by peer's malformed frame: %v", err)
	}
	if st := svc.Stats(); st.Assigned != 2 {
		t.Fatalf("assigned = %d, want 2", st.Assigned)
	}
}

// TestServerUnknownOpAndBadHello cover the remaining rejection paths.
func TestServerUnknownOpAndBadHello(t *testing.T) {
	t.Parallel()
	_, addr := startServer(t, Config{ShardCap: 4, Seed: 2})

	// Wrong hello version: connection closed without a welcome.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var w wire.Writer
	w.Byte(opHello)
	w.Uvarint(99)
	if err := wire.WriteFrame(raw, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(raw, nil, svcMaxFrame); err == nil {
		t.Fatal("server welcomed a wrong-version hello")
	}
	raw.Close()

	// Unknown op after a good handshake: connection closed.
	raw2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw2.Close()
	w.Reset()
	appendSvcHello(&w)
	if err := wire.WriteFrame(raw2, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(raw2, nil, svcMaxFrame); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	if err := wire.WriteFrame(raw2, []byte{0x7f}); err != nil {
		t.Fatal(err)
	}
	raw2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := wire.ReadFrame(raw2, nil, svcMaxFrame); err == nil {
		t.Fatal("server kept the connection after an unknown op")
	}
}

// TestServerOverflowDisconnectsSlowReader pins the outbound-queue cap: a
// connection that floods requests while never reading its responses must be
// disconnected once its pending response bytes exceed MaxConnQueue — and
// the disconnect runs the ordinary crash-absorption teardown, releasing
// every name the connection held, while other connections are unaffected.
func TestServerOverflowDisconnectsSlowReader(t *testing.T) {
	t.Parallel()
	svc, addr := startServerWith(t, Config{ShardCap: 16, Seed: 3},
		ServerConfig{MaxConnQueue: 16 << 10, IOTimeout: 5 * time.Second})

	good, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	if _, err := good.AcquireSync(7); err != nil {
		t.Fatal(err)
	}

	// The hog: a raw connection that acquires one name, then floods stats
	// requests without ever reading a response.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var w wire.Writer
	appendSvcHello(&w)
	if err := wire.WriteFrame(raw, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(raw, nil, svcMaxFrame); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	w.Reset()
	appendAcquire(&w, 1, 99)
	if err := wire.WriteFrame(raw, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(raw, nil, svcMaxFrame); err != nil {
		t.Fatalf("grant: %v", err)
	}
	waitFor(t, "hog's name assigned", func() bool { return svc.Stats().Assigned == 2 })

	// Flood. Responses pile up server-side (the kernel's socket buffers
	// absorb some first); the cap must trip and the server must close the
	// connection, which surfaces here as a write error.
	w.Reset()
	appendStatsReq(&w, 2)
	frame := w.Bytes()
	deadline := time.Now().Add(10 * time.Second)
	var writeErr error
	for time.Now().Before(deadline) {
		raw.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		if err := wire.WriteFrame(raw, frame); err != nil {
			writeErr = err
			break
		}
	}
	if writeErr == nil {
		t.Fatal("server never disconnected the non-reading flooder")
	}

	// Teardown released the hog's name; the polite connection still works.
	waitFor(t, "hog's name released", func() bool { return svc.Stats().Assigned == 1 })
	if _, err := good.AcquireSync(8); err != nil {
		t.Fatalf("good connection broken by the flooder: %v", err)
	}
}

// TestServerBackpressureOnCoalescedGrants pins the outbound cap against the
// coalesced write path: a connection that floods acquires while never
// reading its grants has whole epochs' worth of grant frames committed to
// its outbox in per-epoch batches, must be disconnected once the pending
// bytes exceed MaxConnQueue, and must leave nothing behind — every name it
// was granted (delivered or not) returns to the pool — while other
// connections' epochs keep flowing throughout.
func TestServerBackpressureOnCoalescedGrants(t *testing.T) {
	t.Parallel()
	svc, addr := startServerWith(t, Config{ShardCap: 1 << 15, Seed: 9},
		ServerConfig{MaxConnQueue: 16 << 10, MaxOutstanding: 1 << 16, IOTimeout: 5 * time.Second})

	good, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	g0, err := good.AcquireSync(7)
	if err != nil {
		t.Fatal(err)
	}

	// The hog: floods acquires without ever reading a response. Each epoch
	// commits its grants to the hog's outbox in one coalesced append; the
	// kernel's socket buffers drain some, then the cap must trip.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var w wire.Writer
	appendSvcHello(&w)
	if err := wire.WriteFrame(raw, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(raw, nil, svcMaxFrame); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	var writeErr error
	deadline := time.Now().Add(10 * time.Second)
	for client := uint64(100); time.Now().Before(deadline); client++ {
		w.Reset()
		appendAcquire(&w, client, client)
		raw.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		if err := wire.WriteFrame(raw, w.Bytes()); err != nil {
			writeErr = err
			break
		}
	}
	if writeErr == nil {
		t.Fatal("server never disconnected the non-reading grant flood")
	}

	// The hog's teardown releases everything it was granted — including
	// grants staged but never deliverable — leaving only good's name.
	waitFor(t, "hog's names all released", func() bool {
		st := svc.Stats()
		return st.Assigned == 1 && st.Pending == 0
	})
	// Other connections were never stalled: the polite client still churns.
	if err := good.ReleaseSync(g0.Name); err != nil {
		t.Fatalf("good connection broken by the flooder: %v", err)
	}
	if _, err := good.AcquireSync(8); err != nil {
		t.Fatalf("good connection broken by the flooder: %v", err)
	}
}

// TestServerHandshakeDeadlineShedsStalledConns pins the handshake bound:
// a connection that never sends its hello (a half-open victim of a chaos
// proxy, or a port scanner) must be shed within HandshakeTimeout instead
// of pinning a reader goroutine until the much larger IOTimeout.
func TestServerHandshakeDeadlineShedsStalledConns(t *testing.T) {
	t.Parallel()
	_, addr := startServerWith(t, Config{ShardCap: 8, Seed: 9},
		ServerConfig{HandshakeTimeout: 200 * time.Millisecond, IOTimeout: 30 * time.Second})

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	start := time.Now()
	// Send nothing; the server must close the connection on its own.
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server spoke first on an un-handshaken connection")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("stalled connection shed after %v, want ~HandshakeTimeout", d)
	}

	// A prompt hello still works with the tight handshake deadline.
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatalf("dial after shed: %v", err)
	}
	defer c.Close()
	if _, err := c.AcquireSync(1); err != nil {
		t.Fatal(err)
	}
}

// stepGate is a channel-driven CommitGate: every WaitCommitted announces
// itself on entered and then blocks until the test sends its verdict on
// verdict, so a test decides exactly how long each commit takes and how it
// ends. It also checks the pipeline's promise to gates: per shard, never
// two WaitCommitted calls in flight.
type stepGate struct {
	entered  chan int      // shard of each WaitCommitted, as it begins
	verdict  chan error    // one receive ends one wait
	release  [2]chan error // one receive ends one wait on that shard
	done     chan struct{}
	inflight [2]atomic.Int32
	overlap  atomic.Bool
}

func newStepGate() *stepGate {
	return &stepGate{
		entered: make(chan int), verdict: make(chan error), done: make(chan struct{}),
		release: [2]chan error{make(chan error), make(chan error)},
	}
}

func (g *stepGate) AdmitWrites() (bool, string) { return true, "" }

func (g *stepGate) WaitCommitted(shard int) error {
	if g.inflight[shard].Add(1) != 1 {
		g.overlap.Store(true)
	}
	defer g.inflight[shard].Add(-1)
	select {
	case g.entered <- shard:
	case <-g.done:
		return nil
	}
	select {
	case err := <-g.verdict:
		return err
	case err := <-g.release[shard]:
		return err
	case <-g.done:
		return nil
	}
}

// awaitEntered blocks until a WaitCommitted begins and returns its shard.
func (g *stepGate) awaitEntered(t *testing.T) int {
	t.Helper()
	select {
	case shard := <-g.entered:
		return shard
	case <-time.After(10 * time.Second):
		t.Fatal("no WaitCommitted began")
		return -1
	}
}

// passAll commits every wait that begins, until the test ends.
func (g *stepGate) passAll() {
	go func() {
		for {
			select {
			case <-g.entered:
			case <-g.done:
				return
			}
			select {
			case g.verdict <- nil:
			case <-g.done:
				return
			}
		}
	}()
}

// passUntil commits every wait that begins until cond holds.
func (g *stepGate) passUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		select {
		case <-g.entered:
			g.verdict <- nil
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// pipelineClient is one connection whose grants (and errors) are recorded in
// arrival order.
type pipelineClient struct {
	*Client
	mu     sync.Mutex
	grants []Grant
	errs   []error
}

func dialPipeline(t *testing.T, addr string) *pipelineClient {
	t.Helper()
	c, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &pipelineClient{Client: c}
}

// acquire pipelines one acquire per client ID and flushes.
func (p *pipelineClient) acquire(t *testing.T, clients ...uint64) {
	t.Helper()
	for _, client := range clients {
		err := p.Acquire(client, func(g Grant, err error) {
			p.mu.Lock()
			defer p.mu.Unlock()
			if err != nil {
				p.errs = append(p.errs, err)
			} else {
				p.grants = append(p.grants, g)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
}

// seen returns the grants received so far. A stats round trip first makes
// the answer exact: responses are FIFO per connection, so every grant frame
// the server committed to this connection's outbox before it served the
// stats request has been dispatched by the time the reply is.
func (p *pipelineClient) seen(t *testing.T) []Grant {
	t.Helper()
	if _, err := p.StatsSync(); err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]Grant(nil), p.grants...)
}

// startPipeline serves a one-shard volatile service behind a stepGate, so
// the test decides when each of the shard deliverer's commit waits returns.
func startPipeline(t *testing.T, cfg Config, scfg ServerConfig) (*Service, *Server, string, *stepGate) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startPipelineOn(t, ln, cfg, scfg)
}

// startPipelineOn is startPipeline serving on a listener the caller made.
func startPipelineOn(t *testing.T, ln net.Listener, cfg Config, scfg ServerConfig) (*Service, *Server, string, *stepGate) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Service = svc
	scfg.Logf = t.Logf
	gate := newStepGate()
	scfg.Gate = gate
	srv, err := NewServer(scfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		// A deliverer still parked in the gate must be let go before
		// Server.Close can wait for it.
		close(gate.done)
		ln.Close()
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
		if gate.overlap.Load() {
			t.Error("two WaitCommitted calls were in flight on one shard")
		}
	})
	return svc, srv, ln.Addr().String(), gate
}

// TestPipelineClosesEpochsDuringCommitWait: with the shard's deliverer
// parked in WaitCommitted, later acquires are still closed into epochs —
// the shard's epoch counter advances — yet nothing reaches the wire; when
// the gate lets go, every grant arrives, in epoch order, the epochs closed
// during the first wait sharing the second.
func TestPipelineClosesEpochsDuringCommitWait(t *testing.T) {
	t.Parallel()
	svc, _, addr, gate := startPipeline(t, Config{ShardCap: 64, Seed: 3}, ServerConfig{})
	c := dialPipeline(t, addr)

	c.acquire(t, 1)
	gate.awaitEntered(t) // epoch 1 is in flight, its commit pending
	for client := uint64(2); client <= 4; client++ {
		c.acquire(t, client)
		waitFor(t, "the epoch loop to close another epoch during the commit wait",
			func() bool { return svc.ShardEpoch(0) == client })
	}
	if got := c.seen(t); len(got) != 0 {
		t.Fatalf("%d grants on the wire before any commit: %+v", len(got), got)
	}

	gate.verdict <- nil  // epoch 1 commits
	gate.awaitEntered(t) // one wait for epochs 2..4 together
	if got := c.seen(t); len(got) != 1 || got[0].Epoch != 1 {
		t.Fatalf("after the first commit the wire carries %+v, want epoch 1's grant alone", got)
	}
	gate.verdict <- nil
	waitFor(t, "the remaining grants", func() bool { return len(c.seen(t)) == 4 })
	for i, g := range c.seen(t) {
		if g.Epoch != uint64(i+1) {
			t.Fatalf("grant %d is from epoch %d: delivery left epoch order", i, g.Epoch)
		}
	}
	select {
	case shard := <-gate.entered:
		t.Fatalf("a WaitCommitted(%d) with nothing staged", shard)
	default:
	}
}

// TestPipelineWindowBackpressure: the window of closed-but-uncommitted
// grants is bounded. With the deliverer parked, the epoch loop closes
// epochs until maxStagedGrants are staged behind the batch in flight, then
// stops — requests stay queued in the service — and resumes when delivery
// frees the window.
func TestPipelineWindowBackpressure(t *testing.T) {
	t.Parallel()
	const maxBatch = 64
	const flood = maxStagedGrants + 10*maxBatch
	svc, srv, addr, gate := startPipeline(t,
		Config{ShardCap: 1 << 14, Seed: 3, MaxBatch: maxBatch},
		ServerConfig{MaxOutstanding: 1 << 14})
	c := dialPipeline(t, addr)

	c.acquire(t, 1)
	gate.awaitEntered(t)
	clients := make([]uint64, flood)
	for i := range clients {
		clients[i] = uint64(i + 2)
	}
	c.acquire(t, clients...)
	d := &srv.deliver[0]
	staged := func() int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.pend.staged)
	}
	waitFor(t, "the window to fill", func() bool { return staged() >= maxStagedGrants })
	c.seen(t) // a round trip later the epoch loop has had every chance to overrun
	if n := staged(); n >= maxStagedGrants+maxBatch {
		t.Fatalf("%d grants staged: the epoch loop closed an epoch into a full window", n)
	}
	if n, queued := staged(), svc.Pending(0); queued != flood-n {
		t.Fatalf("%d staged, %d still queued, of %d: the epoch loop did not stop", n, queued, flood)
	}

	gate.verdict <- nil // the first batch commits; the window swaps into flight
	gate.passUntil(t, "every grant of the flood", func() bool { return len(c.seen(t)) == flood+1 })
	last := uint64(0)
	for _, g := range c.seen(t) {
		if g.Epoch < last {
			t.Fatalf("epoch %d delivered after epoch %d", g.Epoch, last)
		}
		last = g.Epoch
	}
}

// TestPipelineGateErrorDiscardsBothBuffers: when the gate reports the
// records can no longer commit, the batch in flight and everything staged
// behind it are both dropped — not one grant frame is written — and after
// the resync a deposed node goes through, the same names are granted again
// without any client ever having seen them twice.
func TestPipelineGateErrorDiscardsBothBuffers(t *testing.T) {
	t.Parallel()
	svc, srv, addr, gate := startPipeline(t, Config{ShardCap: 64, Seed: 3}, ServerConfig{})
	c := dialPipeline(t, addr)
	before := svc.ShardSnapshotPayload(0)

	c.acquire(t, 1)
	gate.awaitEntered(t)
	c.acquire(t, 2, 3)
	waitFor(t, "a second epoch staged behind the one in flight",
		func() bool { return svc.Pending(0) == 0 && svc.ShardEpoch(0) >= 2 })
	if svc.Stats().Assigned != 3 {
		t.Fatalf("assigned %d, want 3 names in uncommitted epochs", svc.Stats().Assigned)
	}

	gate.verdict <- errors.New("deposed")
	d := &srv.deliver[0]
	waitFor(t, "both buffers to be discarded", func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.pend.staged) == 0 && len(d.fly.staged) == 0
	})
	if got := c.seen(t); len(got) != 0 {
		t.Fatalf("discarded grants reached the wire: %+v", got)
	}
	select {
	case shard := <-gate.entered:
		t.Fatalf("WaitCommitted(%d) for a discarded batch", shard)
	default:
	}

	// What follows deposition: the shard is restored from the new leader's
	// state, which never contained the doomed epochs.
	if err := svc.RestoreReplicaShard(0, before); err != nil {
		t.Fatal(err)
	}
	c2 := dialPipeline(t, addr)
	c2.acquire(t, 11, 12, 13)
	gate.passUntil(t, "the re-grants", func() bool { return len(c2.seen(t)) == 3 })
	names := map[int]bool{}
	for _, g := range c2.seen(t) {
		names[g.Name] = true
	}
	if !names[1] || !names[2] || !names[3] {
		t.Fatalf("the discarded names 1..3 were not granted again: %v", names)
	}
	if got := c.seen(t); len(got) != 0 {
		t.Fatalf("the first connection saw %+v", got)
	}
}

// watchedListener keeps the server side of every connection it accepts, in
// accept order, so a test can see what the server writes to each.
type watchedListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*watchedConn
}

func listenWatched(t *testing.T) *watchedListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &watchedListener{Listener: ln}
}

func (l *watchedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	wc := &watchedConn{Conn: c, closed: make(chan struct{})}
	l.mu.Lock()
	l.conns = append(l.conns, wc)
	l.mu.Unlock()
	return wc, nil
}

// accepted returns the i-th accepted connection. A client whose Dial has
// returned has read its welcome, so its connection is already listed.
func (l *watchedListener) accepted(i int) *watchedConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[i]
}

// watchedConn counts the bytes the server has written to one connection.
// Once stalled, its Writes block until the connection is closed, as a Write
// to a reader that has stopped reading does once the kernel's buffers are
// full — but without depending on how much the kernel buffers.
type watchedConn struct {
	net.Conn
	written   atomic.Int64 // bytes of completed Writes
	stalled   atomic.Bool
	blocked   atomic.Bool // a Write is blocked by the stall
	closed    chan struct{}
	closeOnce sync.Once
}

func (c *watchedConn) Write(p []byte) (int, error) {
	if c.stalled.Load() {
		c.blocked.Store(true)
		<-c.closed
		c.blocked.Store(false)
		return 0, net.ErrClosed
	}
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

func (c *watchedConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestGrantWrittenBeforeNextCommitWait: a shard's deliverer does not
// enter its next commit wait before the connection writer it woke has taken
// the grants it delivered. A commit wait may be a blocking fsync, which
// keeps the deliverer's processor — and a writer readied on it — until the
// runtime retakes the processor. On one processor the order is exact: with
// the deliverer going straight from one delivery into the next wait, the
// gate sees that wait begin before the writer has ever run. It is not
// parallel: it sets GOMAXPROCS.
func TestGrantWrittenBeforeNextCommitWait(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	ln := listenWatched(t)
	_, srv, addr, gate := startPipelineOn(t, ln, Config{ShardCap: 64, Seed: 3}, ServerConfig{})
	c := dialPipeline(t, addr)
	conn := ln.accepted(0)
	welcome := conn.written.Load()

	c.acquire(t, 1)
	gate.awaitEntered(t) // a1's epoch is in flight
	c.acquire(t, 2)
	d := &srv.deliver[0]
	waitFor(t, "a2's epoch to be staged behind a1's", func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.pend.staged) == 1
	})
	gate.verdict <- nil  // a1 commits; the deliverer wakes the writer
	gate.awaitEntered(t) // and begins the wait for a2
	if conn.written.Load() == welcome {
		t.Fatal("the deliverer began its next commit wait before a1's grant frame was written")
	}
	gate.verdict <- nil
	waitFor(t, "both grants", func() bool { return len(c.seen(t)) == 2 })
}

// heldWait is how long the answer-wait tests hold a commit wait before they
// let it commit: the deliverer's wait for the answers is bounded by half
// of its last commit wait, so holding the first one this long makes the
// bound far longer than the few round trips a test makes while the
// deliverer waits.
const heldWait = time.Second

// granted counts the grants a connection has received without sending
// anything: a stats round trip (seen) would itself be a burst, and so an
// answer.
func (p *pipelineClient) granted() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.grants)
}

// answerWaits sums the deliverers' counts of waits for the answers and of
// those the bound ended, over every shard.
func answerWaits(srv *Server) (waits, bounded uint64) {
	for i := range srv.deliver {
		d := &srv.deliver[i]
		d.mu.Lock()
		waits += d.waits
		bounded += d.bounded
		d.mu.Unlock()
	}
	return waits, bounded
}

// TestAnswerWaitCoversNextBurst: behind a gate, a deliverer that has just
// delivered a grant does not begin its next commit wait until the
// connection it answered has sent its next burst and the epoch that burst
// feeds has closed and staged — so that acquire shares the next commit
// instead of sitting it out.
func TestAnswerWaitCoversNextBurst(t *testing.T) {
	t.Parallel()
	svc, srv, addr, gate := startPipeline(t, Config{ShardCap: 64, Seed: 3}, ServerConfig{})
	a, b := dialPipeline(t, addr), dialPipeline(t, addr)

	a.acquire(t, 1)
	gate.awaitEntered(t) // a's epoch 1 is in flight
	b.acquire(t, 2)
	waitFor(t, "b's epoch 2 to be staged behind it", func() bool { return svc.ShardEpoch(0) == 2 })
	time.Sleep(heldWait)
	gate.verdict <- nil // a is granted; b's epoch 2 waits for a's answer
	waitFor(t, "a's grant", func() bool { return a.granted() == 1 })
	a.acquire(t, 3) // the answer
	gate.awaitEntered(t)
	d := &srv.deliver[0]
	d.mu.Lock()
	inFlight, epoch := len(d.fly.staged), svc.ShardEpoch(0)
	d.mu.Unlock()
	if waits, bounded := answerWaits(srv); waits != 1 || bounded != 0 {
		t.Fatalf("%d waits for the answers, %d ended by the bound; want 1 and 0", waits, bounded)
	}
	if inFlight != 2 || epoch != 3 {
		t.Fatalf("the next commit wait covers %d grants at epoch %d: it began before a's answer was staged", inFlight, epoch)
	}
	gate.verdict <- nil
	waitFor(t, "every grant", func() bool { return a.granted() == 2 && b.granted() == 1 })
}

// TestAnswerWaitBoundedBySilentConn: a connection that is granted a name and
// never sends again holds nobody up for long: another connection's acquire,
// staged while the deliverer waits for the silent one's answer, is
// committed and granted once the bound ends the wait.
func TestAnswerWaitBoundedBySilentConn(t *testing.T) {
	t.Parallel()
	svc, srv, addr, gate := startPipeline(t, Config{ShardCap: 64, Seed: 3}, ServerConfig{})
	silent, b := dialPipeline(t, addr), dialPipeline(t, addr)

	silent.acquire(t, 1)
	gate.awaitEntered(t)
	b.acquire(t, 2)
	waitFor(t, "b's epoch to be staged", func() bool { return svc.ShardEpoch(0) == 2 })
	time.Sleep(heldWait)
	gate.verdict <- nil
	gate.awaitEntered(t) // b's commit wait, begun with silent never having answered
	gate.verdict <- nil
	waitFor(t, "b's grant", func() bool { return b.granted() == 1 })
	if waits, bounded := answerWaits(srv); waits != 1 || bounded != 1 {
		t.Fatalf("%d waits for the answers, %d ended by the bound; want 1 and 1", waits, bounded)
	}
	if got := silent.granted(); got != 1 {
		t.Fatalf("the silent connection has %d grants, want 1", got)
	}
}

// TestAnswerWaitSkipsFullWindow: a deliverer never waits for the answers
// while the staging window is full — the epoch loop is waiting on it.
func TestAnswerWaitSkipsFullWindow(t *testing.T) {
	t.Parallel()
	const maxBatch = 64
	const flood = maxStagedGrants + 2*maxBatch
	_, srv, addr, gate := startPipeline(t,
		Config{ShardCap: 1 << 14, Seed: 3, MaxBatch: maxBatch},
		ServerConfig{MaxOutstanding: 1 << 14})
	silent, b := dialPipeline(t, addr), dialPipeline(t, addr)

	silent.acquire(t, 1)
	gate.awaitEntered(t)
	clients := make([]uint64, flood)
	for i := range clients {
		clients[i] = uint64(i + 2)
	}
	b.acquire(t, clients...)
	d := &srv.deliver[0]
	waitFor(t, "the window to fill", func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return len(d.pend.staged) >= maxStagedGrants
	})
	time.Sleep(heldWait)
	gate.verdict <- nil  // silent is granted and never answers
	gate.awaitEntered(t) // the full window goes straight into flight
	if waits, _ := answerWaits(srv); waits != 0 {
		t.Fatalf("the deliverer waited %d times for the answers with the window full", waits)
	}
	gate.verdict <- nil
	gate.passUntil(t, "every grant of the flood", func() bool { return b.granted() == flood })
}

// TestAnswerWaitSkipsManualEpochs: a manual epoch close delivers its grants
// itself and neither waits for the answers nor keeps a list of them.
func TestAnswerWaitSkipsManualEpochs(t *testing.T) {
	t.Parallel()
	_, srv, addr, gate := startPipeline(t, Config{ShardCap: 64, Seed: 3}, ServerConfig{ManualEpochs: true})
	for i, c := range []*pipelineClient{dialPipeline(t, addr), dialPipeline(t, addr)} {
		c.acquire(t, uint64(i+1))
		closed := make(chan error, 1)
		go func() {
			_, _, err := c.EpochSync(0)
			closed <- err
		}()
		gate.awaitEntered(t)
		gate.verdict <- nil
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		if got := c.granted(); got != 1 {
			t.Fatalf("connection %d has %d grants after its manual epoch, want 1", i, got)
		}
	}
	srv.manualMu[0].Lock()
	answers := len(srv.deliver[0].answers)
	srv.manualMu[0].Unlock()
	if waits, _ := answerWaits(srv); waits != 0 || answers != 0 {
		t.Fatalf("manual epochs waited %d times for the answers and listed %d connections", waits, answers)
	}
}

// twoShardPipeline serves a two-shard volatile service behind a stepGate,
// each shard with its own deliverer.
func twoShardPipeline(t *testing.T) (*Service, *Server, string, *stepGate) {
	t.Helper()
	return startPipeline(t, Config{Shards: 2, ShardCap: 64, Seed: 3}, ServerConfig{})
}

// awaitBothEntered receives two WaitCommitted begins, before either is let
// go, and requires one on each shard.
func (g *stepGate) awaitBothEntered(t *testing.T) {
	t.Helper()
	if a, b := g.awaitEntered(t), g.awaitEntered(t); a == b {
		t.Fatalf("two commit waits began on shard %d, none on the other", a)
	}
}

// flying returns how many grants each shard's batch in flight holds. It is
// read while both commit waits are held in the gate, so the deliverers are
// not touching their batches.
func flying(srv *Server) [2]int {
	return [2]int{len(srv.deliver[0].fly.staged), len(srv.deliver[1].fly.staged)}
}

// TestAnswerWaitStartsBothShardsOfABurst: behind a gate, a connection's
// burst with acquires for both shards — its answer to a grant — starts both
// shards' commit waits before either returns.
func TestAnswerWaitStartsBothShardsOfABurst(t *testing.T) {
	t.Parallel()
	svc, srv, addr, gate := twoShardPipeline(t)
	c := dialPipeline(t, addr)

	c.acquire(t, clientOnShard(svc, 0, 1))
	gate.awaitEntered(t)
	time.Sleep(heldWait)
	gate.verdict <- nil
	waitFor(t, "the first grant", func() bool { return c.granted() == 1 })
	c.acquire(t, clientOnShard(svc, 0, 2), clientOnShard(svc, 1, 1)) // one burst, both shards
	gate.awaitBothEntered(t)
	if got := flying(srv); got != [2]int{1, 1} {
		t.Fatalf("%v grants in flight, want one per shard", got)
	}
	gate.verdict <- nil
	gate.verdict <- nil
	waitFor(t, "every grant", func() bool { return c.granted() == 3 })
}

// TestAnswerWaitSpansShardsOfAConnection: a connection with grants in
// flight on both shards has answered a shard's delivery only once the other
// shard's batch, taken into flight before that delivery ended, has reached
// it too and it has answered that as well. Until then the shard that
// delivered first starts no commit wait, though the connection's answer to
// it has staged; then both shards start theirs together.
func TestAnswerWaitSpansShardsOfAConnection(t *testing.T) {
	t.Parallel()
	svc, srv, addr, gate := twoShardPipeline(t)
	c := dialPipeline(t, addr)

	c.acquire(t, clientOnShard(svc, 0, 1), clientOnShard(svc, 1, 1))
	gate.awaitBothEntered(t)
	time.Sleep(heldWait)
	gate.release[0] <- nil
	waitFor(t, "shard 0's grant", func() bool { return c.granted() == 1 })
	c.acquire(t, clientOnShard(svc, 0, 2)) // the answer to shard 0
	waitFor(t, "the answer's epoch to be staged", func() bool { return svc.ShardEpoch(0) == 2 })
	c.seen(t) // a round trip: every goroutine the server has readied has run
	if n := gate.inflight[0].Load(); n != 0 {
		t.Fatal("shard 0 began a commit wait while the connection's batch on shard 1 was in flight")
	}
	gate.release[1] <- nil
	waitFor(t, "shard 1's grant", func() bool { return c.granted() == 2 })
	c.acquire(t, clientOnShard(svc, 1, 2)) // the answer to shard 1
	gate.awaitBothEntered(t)
	if got := flying(srv); got != [2]int{1, 1} {
		t.Fatalf("%v grants in flight, want both answers, one per shard", got)
	}
	if _, bounded := answerWaits(srv); bounded != 0 {
		t.Fatalf("the bound ended %d waits for the answers", bounded)
	}
	gate.verdict <- nil
	gate.verdict <- nil
	waitFor(t, "every grant", func() bool { return c.granted() == 4 })
}

// TestAnswerWaitLeavesSeparateShardsApart: shards whose connections no
// other shard serves keep their own pace. With one connection on each
// shard, shard 1 delivers, hears its connection answer and starts its next
// commit wait while shard 0's first is still held.
func TestAnswerWaitLeavesSeparateShardsApart(t *testing.T) {
	t.Parallel()
	svc, _, addr, gate := twoShardPipeline(t)
	a, b := dialPipeline(t, addr), dialPipeline(t, addr)

	a.acquire(t, clientOnShard(svc, 0, 1))
	b.acquire(t, clientOnShard(svc, 1, 1))
	gate.awaitBothEntered(t)
	time.Sleep(heldWait)
	gate.release[1] <- nil
	waitFor(t, "b's grant", func() bool { return b.granted() == 1 })
	b.acquire(t, clientOnShard(svc, 1, 2))
	if shard := gate.awaitEntered(t); shard != 1 {
		t.Fatalf("the next commit wait is on shard %d, want 1", shard)
	}
	if a.granted() != 0 {
		t.Fatal("a was granted while shard 0's commit wait was held")
	}
	gate.verdict <- nil
	gate.verdict <- nil
	waitFor(t, "every grant", func() bool { return a.granted() == 1 && b.granted() == 2 })
}

// TestAnswerWaitStagesAnswerOnOtherShard: a connection granted a name by
// shard 0 answers with an acquire that routes to shard 1, while another
// connection's grant waits on shard 0: shard 0's next commit wait begins
// only once the answer has arrived, and shard 1 takes the answer into
// flight while it is held.
func TestAnswerWaitStagesAnswerOnOtherShard(t *testing.T) {
	t.Parallel()
	svc, srv, addr, gate := twoShardPipeline(t)
	a, b := dialPipeline(t, addr), dialPipeline(t, addr)

	a.acquire(t, clientOnShard(svc, 0, 1))
	gate.awaitEntered(t)
	b.acquire(t, clientOnShard(svc, 0, 2))
	waitFor(t, "b's epoch to be staged behind a's", func() bool { return svc.ShardEpoch(0) == 2 })
	time.Sleep(heldWait)
	gate.verdict <- nil // a is granted; b's grant waits for a's answer
	waitFor(t, "a's grant", func() bool { return a.granted() == 1 })
	a.acquire(t, clientOnShard(svc, 1, 1)) // the answer, on the other shard
	gate.awaitBothEntered(t)
	if got := flying(srv); got != [2]int{1, 1} {
		t.Fatalf("%v grants in flight, want b's on shard 0 and a's answer on shard 1", got)
	}
	if waits, bounded := answerWaits(srv); waits != 1 || bounded != 0 {
		t.Fatalf("%d waits for the answers, %d ended by the bound; want 1 and 0", waits, bounded)
	}
	gate.verdict <- nil
	gate.verdict <- nil
	waitFor(t, "every grant", func() bool { return a.granted() == 2 && b.granted() == 1 })
}

// TestServerBackpressureBehindGate is TestServerBackpressureOnCoalescedGrants
// behind a gate. The deliverer waits for the writers it wakes, so it must
// never wait on one that is busy in a Write to a reader that has stopped
// reading: a reading connection on the same shard keeps receiving grants
// while the stalled writer sits in its Write, and the stalled connection is
// still dropped at MaxConnQueue, releasing everything it was granted.
func TestServerBackpressureBehindGate(t *testing.T) {
	t.Parallel()
	ln := listenWatched(t)
	// IOTimeout is far beyond the test's deadline, so only the cap can drop
	// the stalled connection in time.
	svc, _, addr, gate := startPipelineOn(t, ln, Config{ShardCap: 1 << 15, Seed: 9},
		ServerConfig{MaxConnQueue: 16 << 10, MaxOutstanding: 1 << 16, IOTimeout: time.Minute})
	gate.passAll()
	deadline := time.Now().Add(10 * time.Second)

	good, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	g0, err := good.AcquireSync(7)
	if err != nil {
		t.Fatal(err)
	}
	// churn acquires and releases one name on the good connection.
	client := uint64(1 << 20)
	churn := func() {
		t.Helper()
		done := make(chan error, 1)
		go func(client uint64) {
			g, err := good.AcquireSync(client)
			if err == nil {
				err = good.ReleaseSync(g.Name)
			}
			done <- err
		}(client)
		client++
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("good connection: %v", err)
			}
		case <-time.After(time.Until(deadline)):
			t.Fatal("good connection's grant held up behind the stalled writer")
		}
	}

	// The hog floods acquires and never reads its grants.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var w wire.Writer
	appendSvcHello(&w)
	if err := wire.WriteFrame(raw, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ReadFrame(raw, nil, svcMaxFrame); err != nil {
		t.Fatalf("welcome: %v", err)
	}
	hog := ln.accepted(1)
	hog.stalled.Store(true)
	next := uint64(100)
	flood := func() error {
		for i := 0; i < 64; i++ {
			w.Reset()
			appendAcquire(&w, next, next)
			next++
			raw.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
			if err := wire.WriteFrame(raw, w.Bytes()); err != nil {
				return err
			}
		}
		return nil
	}
	if err := flood(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the hog's writer to block in a Write", hog.blocked.Load)

	// The good connection keeps churning on the same shard, each grant
	// delivered by the deliverer that also delivers to the hog.
	for i := 0; i < 8; i++ {
		churn()
		if err := flood(); err != nil {
			t.Fatalf("the hog was dropped below the cap: %v", err)
		}
	}
	if !hog.blocked.Load() {
		t.Fatal("the hog's stalled Write returned while its connection was open")
	}

	// Grants pile up in the stalled outbox until the cap drops the hog, which
	// surfaces here as a write error.
	var writeErr error
	for time.Now().Before(deadline) && writeErr == nil {
		writeErr = flood()
	}
	if writeErr == nil {
		t.Fatal("server never disconnected the stalled connection")
	}
	waitFor(t, "hog's names all released", func() bool {
		st := svc.Stats()
		return st.Assigned == 1 && st.Pending == 0
	})
	if err := good.ReleaseSync(g0.Name); err != nil {
		t.Fatalf("good connection broken by the hog: %v", err)
	}
	churn()
}

// TestManualEpochDeliversSynchronouslyBehindGate: manual epochs have no
// delivery goroutine; the epoch op waits out the commit itself and its
// reply follows the epoch's grants on the wire.
func TestManualEpochDeliversSynchronouslyBehindGate(t *testing.T) {
	t.Parallel()
	_, _, addr, gate := startPipeline(t, Config{ShardCap: 64, Seed: 3}, ServerConfig{ManualEpochs: true})
	c := dialPipeline(t, addr)
	c.acquire(t, 1, 2)
	type reply struct {
		granted int
		seen    int
		err     error
	}
	replied := make(chan reply, 1)
	err := c.Epoch(0, func(_ uint64, granted int, err error) {
		c.mu.Lock()
		defer c.mu.Unlock()
		replied <- reply{granted: granted, seen: len(c.grants), err: err}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	gate.awaitEntered(t)
	select {
	case r := <-replied:
		t.Fatalf("epoch reply %+v before the commit", r)
	default:
	}
	gate.verdict <- nil
	select {
	case r := <-replied:
		if r.err != nil || r.granted != 2 || r.seen != 2 {
			t.Fatalf("epoch reply %+v, want 2 granted with both grants already dispatched", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no epoch reply after the commit")
	}
}

// TestServerSchedulerShapes runs the one epoch loop in each shape NewServer
// gives it — a stripe of shards per loop when shards outnumber cores (with
// and without a gate), one loop per shard when cores cover the shards, and
// no loops at all under ManualEpochs — and requires the same outcome from
// each: every acquire granted exactly once, and Close returning with every
// shard's deliverer told to stop and every name released. It is not
// parallel: the loop count follows GOMAXPROCS while NewServer runs.
func TestServerSchedulerShapes(t *testing.T) {
	const shards, clients = 4, 64
	cases := []struct {
		name    string
		procs   int // GOMAXPROCS while NewServer runs; 0 leaves it alone
		scfg    ServerConfig
		gate    bool
		workers int
	}{
		{name: "striped", procs: 1, workers: 1},
		{name: "striped behind a gate", procs: 1, gate: true, workers: 1},
		{name: "one loop per shard", procs: shards, workers: shards},
		{name: "manual epochs", scfg: ServerConfig{ManualEpochs: true}, gate: true, workers: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc, err := New(Config{Shards: shards, ShardCap: clients, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			scfg := tc.scfg
			scfg.Service = svc
			scfg.Logf = t.Logf
			if tc.gate {
				scfg.Gate = GroupGate(svc) // volatile service: every wait returns at once
			}
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			srv, err := NewServer(scfg)
			if err != nil {
				t.Fatal(err)
			}
			if srv.workers != tc.workers {
				t.Fatalf("%d epoch loops, want %d", srv.workers, tc.workers)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- srv.Serve(ln) }()

			c := dialPipeline(t, ln.Addr().String())
			ids := make([]uint64, clients)
			for i := range ids {
				ids[i] = uint64(i + 1)
			}
			c.acquire(t, ids...)
			if scfg.ManualEpochs {
				for shard := 0; shard < shards; shard++ {
					if _, _, err := c.EpochSync(shard); err != nil {
						t.Fatalf("closing shard %d: %v", shard, err)
					}
				}
			}
			waitFor(t, "every grant", func() bool { return len(c.seen(t)) == clients })
			// One callback per acquire, so the count is exactly-once per
			// request; the names must be distinct.
			byName, touched := map[int]bool{}, map[int]bool{}
			for _, g := range c.seen(t) {
				if byName[g.Name] {
					t.Fatalf("grant %+v repeats a name", g)
				}
				byName[g.Name], touched[g.Shard] = true, true
			}
			c.mu.Lock()
			errs := c.errs
			c.mu.Unlock()
			if len(errs) != 0 || len(touched) != shards {
				t.Fatalf("errors %v; %d of %d shards granted", errs, len(touched), shards)
			}

			ln.Close()
			closed := make(chan struct{})
			go func() { srv.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(10 * time.Second):
				t.Fatal("Close did not return: a deliverer was never stopped")
			}
			if err := <-served; err != nil {
				t.Errorf("serve: %v", err)
			}
			// Only an exiting epoch loop stops a deliverer, so a stopped one
			// means the shard had both; manual epochs have neither.
			for i := range srv.deliver {
				if d := &srv.deliver[i]; d.stop != (tc.workers > 0) {
					t.Errorf("shard %d: deliverer told to stop = %v, want %v", i, d.stop, tc.workers > 0)
				}
			}
			if st := svc.Stats(); st.Assigned != 0 || st.Pending != 0 {
				t.Errorf("after Close: %d names assigned, %d acquires pending; want every name released",
					st.Assigned, st.Pending)
			}
		})
	}
}
