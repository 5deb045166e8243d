package repl

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/namesvc/durable"
)

// syncWatchSink calls onSync on the flushing goroutine as each WAL segment
// fsync begins, before the fsync itself.
type syncWatchSink struct {
	durable.Sink
	onSync func()
}

func (s *syncWatchSink) Create(name string) (durable.File, error) {
	f, err := s.Sink.Create(name)
	if err != nil || !strings.HasPrefix(name, "wal-") {
		return f, err
	}
	return &syncWatchFile{File: f, onSync: s.onSync}, nil
}

type syncWatchFile struct {
	durable.File
	onSync func()
}

func (f *syncWatchFile) Sync() error {
	f.onSync()
	return f.File.Sync()
}

// awaitStreamsIdle waits until every follower of leader n has a link
// that has sent, and a follower that has acknowledged, every record.
func awaitStreamsIdle(t *testing.T, n *Node, followers ...int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		n.mu.Lock()
		l := n.ldr
		idle := l != nil
		for _, id := range followers {
			lk := l.links[id]
			idle = idle && lk != nil && lk.sentIdx == l.nextIdx-1 && l.match[id] == l.nextIdx-1
		}
		n.mu.Unlock()
		if idle {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the follower streams did not go idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// produceEpoch closes one epoch of up to len(clients) grants on the
// shard, then releases them in one batch: two records.
func produceEpoch(t *testing.T, svc *namesvc.Service, shard int, clients []uint64) {
	t.Helper()
	for _, client := range clients {
		if _, err := svc.Acquire(client, nil); err != nil {
			t.Fatalf("acquire: %v", err)
		}
	}
	grants, err := svc.CloseEpoch(shard)
	if err != nil {
		t.Fatalf("closing epoch on shard %d: %v", shard, err)
	}
	ops := make([]namesvc.ReleaseOp, 0, len(grants))
	for _, g := range grants {
		ops = append(ops, namesvc.ReleaseOp{Client: g.Client, Name: g.Name})
	}
	if _, err := svc.ReleaseBatch(shard, ops, nil); err != nil {
		t.Fatalf("releasing: %v", err)
	}
}

// clientsOnShard returns the first count client IDs that route to shard.
func clientsOnShard(svc *namesvc.Service, shard, count int) []uint64 {
	clients := make([]uint64, count)
	for i := range clients {
		clients[i] = clientOnShard(svc, shard, i+1)
	}
	return clients
}

// TestFollowerSendersTakeRecordsBeforeCommitFlush: a replicated commit wait
// does not begin its own segment flush before every idle follower sender
// has taken the records up to the wait's target. The flush may be a
// blocking fsync, which keeps the wait's processor — and a sender readied
// on it — until the runtime retakes the processor, so the followers'
// copies would start late. On one processor the order is exact: the record
// hook readies the senders, and without the hand-off the wait reaches its
// flush before either has run. It is not parallel: it sets GOMAXPROCS.
func TestFollowerSendersTakeRecordsBeforeCommitFlush(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	var leader atomic.Pointer[Node]
	var armed atomic.Bool
	var short []string // senders short of the target as an armed flush began
	watch := &syncWatchSink{Sink: durable.NewMemSink(), onSync: func() {
		if !armed.CompareAndSwap(true, false) {
			return
		}
		n := leader.Load()
		n.mu.Lock()
		defer n.mu.Unlock()
		target := n.ldr.lastIdxByShard[0]
		for id, lk := range n.ldr.links {
			if lk.sentIdx < target {
				short = append(short, fmt.Sprintf("node %d's sender took its records (sent %d, target %d)", id, lk.sentIdx, target))
			}
		}
	}}
	// An election timeout longer than the test: no heartbeat wakes a sender.
	c := startClusterOver(t, [][]durable.Sink{{watch, durable.NewMemSink()}, memSinks(), memSinks()},
		func(cfg *Config) { cfg.ElectionTimeout = time.Minute })
	n := c.nodes[0]
	leader.Store(n)
	if !n.Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}
	clients := clientsOnShard(c.svcs[0], 0, 4)
	flushed := 0
	for round := 0; round < 12; round++ {
		produceEpoch(t, c.svcs[0], 0, clients)
		// The first round attaches the streams. A round whose records a
		// checkpoint has already synced (SnapshotEvery) has no flush.
		armed.Store(round > 0)
		mustCommit(t, n, 0)
		if round > 0 && !armed.Swap(false) {
			flushed++
		}
		if len(short) > 0 {
			t.Fatalf("round %d: the commit wait's flush began before %s", round, strings.Join(short, " and "))
		}
		awaitStreamsIdle(t, n, 1, 2)
	}
	if flushed < 6 {
		t.Fatalf("%d of 11 commit waits flushed, want at least 6", flushed)
	}
}

// stallListener hands out connections whose reads can be stopped: a
// follower that keeps its stream open but stops reading it, so the
// leader's writes fill the socket and block.
type stallListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*stallConn
}

func (l *stallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	sc := &stallConn{Conn: c, closed: make(chan struct{})}
	l.mu.Lock()
	l.conns = append(l.conns, sc)
	l.mu.Unlock()
	return sc, nil
}

// stall stops reading on every connection accepted so far.
func (l *stallListener) stall() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.stalled.Store(true)
	}
}

type stallConn struct {
	net.Conn
	stalled   atomic.Bool
	closed    chan struct{}
	closeOnce sync.Once
}

func (c *stallConn) Read(p []byte) (int, error) {
	if c.stalled.Load() {
		<-c.closed
		return 0, net.ErrClosed
	}
	return c.Conn.Read(p)
}

func (c *stallConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// startStalledFollower starts a three-node cluster led by node 0 whose
// follower 2 has stopped reading, and produces records until node 0's
// sender to it is held in a write: not parked, with records it has not
// taken, its cursor still. The sender's write deadline (replIOTimeout)
// tears the link down 5 s after the write blocked, so a caller has that
// long to use the stuck link.
func startStalledFollower(t *testing.T) (*cluster, *followerLink) {
	t.Helper()
	var sl *stallListener
	// An election timeout longer than the test: check-quorum keeps the
	// leader through the stall, and no ack deadline ends the stuck link.
	c := startCluster(t, 3, func(cfg *Config) {
		cfg.ElectionTimeout = time.Minute
		if cfg.NodeID == 2 {
			sl = &stallListener{Listener: cfg.Listener}
			cfg.Listener = sl
		}
	})
	n := c.nodes[0]
	if !n.Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}
	svc := c.svcs[0]
	clients := clientsOnShard(svc, 0, testShardCap)
	produceEpoch(t, svc, 0, clients)
	mustCommit(t, n, 0)
	awaitStreamsIdle(t, n, 1, 2)
	sl.stall()

	deadline := time.Now().Add(60 * time.Second)
	var last uint64
	for still := 0; ; {
		for i := 0; i < 16; i++ {
			produceEpoch(t, svc, 0, clients)
		}
		n.mu.Lock()
		lk := n.ldr.links[2]
		stuck := lk != nil && !lk.parked && lk.sentIdx < n.ldr.nextIdx-1 && lk.sentIdx == last
		if lk != nil {
			last = lk.sentIdx
		}
		n.mu.Unlock()
		if !stuck {
			still = 0
		} else if still++; still == 4 {
			return c, lk
		}
		if time.Now().After(deadline) {
			t.Fatal("node 0's sender to the stalled follower never blocked in a write")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitBounded runs WaitCommitted on n for every shard given, all at once,
// and fails the test unless each returns nil within bound.
func waitBounded(t *testing.T, n *Node, bound time.Duration, shards ...int) {
	t.Helper()
	done := make(chan error, len(shards))
	for _, shard := range shards {
		go func() {
			if err := n.WaitCommitted(shard); err != nil {
				done <- fmt.Errorf("WaitCommitted(%d): %w", shard, err)
				return
			}
			done <- nil
		}()
	}
	timeout := time.After(bound)
	for range shards {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			t.Fatalf("a commit wait on shards %v still waiting after %v", shards, bound)
		}
	}
}

// commitWaitBound is how long a commit wait may take in the stalled-link
// tests: well under replIOTimeout, after which the stuck write would tear
// the link down and free anything waiting on it.
const commitWaitBound = 2 * time.Second

// TestStalledFollowerNeverWaitedOn: a follower that has stopped reading,
// with the leader's sender to it blocked in a write, is never part of a
// commit wait's hand-off — the sender is not parked — so commit waits keep
// committing through the other follower, each well inside the write
// deadline that would otherwise free them. The two shards' waits run at
// once, so both join the healthy sender's pickups together.
func TestStalledFollowerNeverWaitedOn(t *testing.T) {
	c, stuck := startStalledFollower(t)
	n := c.nodes[0]
	n.mu.Lock()
	sent := stuck.sentIdx
	n.mu.Unlock()
	for i := 0; i < 8; i++ {
		for shard := 0; shard < testShards; shard++ {
			produceEpoch(t, c.svcs[0], shard, clientsOnShard(c.svcs[0], shard, 4))
		}
		waitBounded(t, n, commitWaitBound, 0, 1)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ldr.links[2] != stuck || stuck.sentIdx != sent {
		t.Fatal("the stalled follower's link moved: the commit waits were not made while it was stuck")
	}
	if len(stuck.pickups) != 0 {
		t.Fatalf("%d commit waits registered on a sender blocked in a write", len(stuck.pickups))
	}
}

// TestTornDownLinkReleasesPickup: a commit wait that has woken a parked
// sender and waits for it to take its records is released when the link
// is torn down first — by a killed follower or by the leader's fencing —
// and returns: nil through the other follower, or errDeposed. A sender
// runs at once when woken, so the window between the wake and its pickup
// is held open here: the sender to the stalled follower is blocked in a
// write and is marked parked under Node.mu, which is the state of a
// sender that a commit wait has woken and that has not run yet.
func TestTornDownLinkReleasesPickup(t *testing.T) {
	for _, tc := range []struct {
		name     string
		teardown func(c *cluster)
		want     error
	}{
		{"killed follower", func(c *cluster) { c.nodes[2].Close() }, nil},
		{"fenced leader", func(c *cluster) {
			_, term, _ := c.nodes[0].Status()
			c.nodes[0].observeTerm(term + 1)
		}, errDeposed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, stuck := startStalledFollower(t)
			n := c.nodes[0]
			n.mu.Lock()
			stuck.parked = true
			n.mu.Unlock()
			produceEpoch(t, c.svcs[0], 0, clientsOnShard(c.svcs[0], 0, 4))
			done := make(chan error, 1)
			go func() { done <- n.WaitCommitted(0) }()
			deadline := time.Now().Add(commitWaitBound)
			for {
				n.mu.Lock()
				registered := len(stuck.pickups)
				n.mu.Unlock()
				if registered == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("the commit wait registered %d pickups on the woken sender, want 1", registered)
				}
				time.Sleep(time.Millisecond)
			}
			select {
			case err := <-done:
				t.Fatalf("WaitCommitted returned %v before the woken sender took its records", err)
			case <-time.After(20 * time.Millisecond):
			}
			tc.teardown(c)
			select {
			case err := <-done:
				if !errors.Is(err, tc.want) {
					t.Fatalf("WaitCommitted after the teardown: %v, want %v", err, tc.want)
				}
			case <-time.After(commitWaitBound):
				t.Fatal("WaitCommitted still waits on the torn-down link's pickup")
			}
			n.mu.Lock()
			defer n.mu.Unlock()
			if len(stuck.pickups) != 0 || stuck.parked {
				t.Fatalf("the torn-down link still holds %d pickups (parked %v)", len(stuck.pickups), stuck.parked)
			}
		})
	}
}
