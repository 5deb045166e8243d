package repl

import (
	"encoding/hex"
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/namesvc/durable"
	"ballsintoleaves/internal/wire"
)

const (
	testShards   = 2
	testShardCap = 64
	testSeed     = 42
)

// testLogf wraps t.Logf so background goroutines that outlive the test
// body (stream managers winding down during cleanup) cannot log after
// the test has completed.
func testLogf(t *testing.T) func(string, ...any) {
	var mu sync.Mutex
	done := false
	t.Cleanup(func() { mu.Lock(); done = true; mu.Unlock() })
	return func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			t.Logf(format, args...)
		}
	}
}

func memSinks() []durable.Sink {
	sinks := make([]durable.Sink, testShards)
	for i := range sinks {
		sinks[i] = durable.NewMemSink()
	}
	return sinks
}

// openReplica opens a durable service over sinks with the cluster test
// configuration. Reopening over the same sinks models a process restart.
func openReplica(t *testing.T, sinks []durable.Sink) *namesvc.Service {
	t.Helper()
	svc, err := namesvc.Open(namesvc.Config{
		Shards:       testShards,
		ShardCap:     testShardCap,
		Seed:         testSeed,
		Journal:      true,
		JournalLimit: 1024,
		Durable: &namesvc.Durability{
			Sinks:         sinks,
			Fsync:         namesvc.FsyncGroup,
			SnapshotEvery: 8,
		},
	})
	if err != nil {
		t.Fatalf("opening replica service: %v", err)
	}
	return svc
}

// openReference opens the volatile single-service reference: identical
// allocation configuration, no durability, no replication.
func openReference(t *testing.T) *namesvc.Service {
	t.Helper()
	svc, err := namesvc.Open(namesvc.Config{
		Shards:       testShards,
		ShardCap:     testShardCap,
		Seed:         testSeed,
		Journal:      true,
		JournalLimit: 1024,
	})
	if err != nil {
		t.Fatalf("opening reference service: %v", err)
	}
	return svc
}

// cluster is an in-process replication cluster: one Service + Node per
// member, replication listeners on loopback ephemeral ports, elections
// manual so tests pick leaders deterministically.
type cluster struct {
	t     *testing.T
	peers []PeerSpec
	sinks [][]durable.Sink
	svcs  []*namesvc.Service
	nodes []*Node
	logf  func(string, ...any)
}

func startCluster(t *testing.T, size int, opts ...func(*Config)) *cluster {
	t.Helper()
	sinks := make([][]durable.Sink, size)
	for i := range sinks {
		sinks[i] = memSinks()
	}
	return startClusterOver(t, sinks, opts...)
}

// startClusterOver starts one member per entry of sinks, each over its own
// shard sinks.
func startClusterOver(t *testing.T, sinks [][]durable.Sink, opts ...func(*Config)) *cluster {
	t.Helper()
	size := len(sinks)
	c := &cluster{t: t, logf: testLogf(t)}
	lns := make([]net.Listener, size)
	for i := 0; i < size; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("binding replication listener: %v", err)
		}
		lns[i] = ln
		c.peers = append(c.peers, PeerSpec{
			ReplAddr:   ln.Addr().String(),
			ClientAddr: "client-" + ln.Addr().String(),
		})
	}
	for i := 0; i < size; i++ {
		svc := openReplica(t, sinks[i])
		cfg := Config{
			NodeID:          i,
			Peers:           c.peers,
			Service:         svc,
			Listener:        lns[i],
			ElectionTimeout: 200 * time.Millisecond,
			ManualElections: true,
			Logf:            c.logf,
		}
		for _, opt := range opts {
			opt(&cfg)
		}
		node, err := Start(cfg)
		if err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		c.sinks = append(c.sinks, sinks[i])
		c.svcs = append(c.svcs, svc)
		c.nodes = append(c.nodes, node)
	}
	t.Cleanup(c.close)
	return c
}

func (c *cluster) close() {
	for _, n := range c.nodes {
		if n != nil {
			n.Close()
		}
	}
	for _, s := range c.svcs {
		if s != nil {
			s.Close()
		}
	}
}

// waitConverged polls until every live replica's position vector equals
// the leader's — stable across two consecutive leader reads, so the
// leader did not advance mid-check.
func (c *cluster) waitConverged(leader int) {
	c.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		want := c.svcs[leader].Positions(nil)
		ok := true
		for i, svc := range c.svcs {
			if i == leader || svc == nil {
				continue
			}
			if !slices.Equal(svc.Positions(nil), want) {
				ok = false
				break
			}
		}
		if ok && slices.Equal(c.svcs[leader].Positions(nil), want) {
			return
		}
		if time.Now().After(deadline) {
			for i, svc := range c.svcs {
				if svc != nil {
					c.t.Logf("node %d positions: %v", i, svc.Positions(nil))
				}
			}
			c.t.Fatalf("replicas did not converge on leader %d's positions %v", leader, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// assertReplicasMatch requires every live replica to be byte-identical to
// the first live one: per-shard epochs, digests, and journal windows.
func (c *cluster) assertReplicasMatch() {
	c.t.Helper()
	base := -1
	for i, svc := range c.svcs {
		if svc == nil {
			continue
		}
		if base < 0 {
			base = i
			continue
		}
		if got, want := svc.Digest(), c.svcs[base].Digest(); got != want {
			c.t.Fatalf("node %d digest %#x != node %d digest %#x", i, got, base, want)
		}
		for shard := 0; shard < testShards; shard++ {
			if got, want := svc.ShardEpoch(shard), c.svcs[base].ShardEpoch(shard); got != want {
				c.t.Fatalf("node %d shard %d epoch %d != node %d epoch %d", i, shard, got, base, want)
			}
			if got, want := svc.ShardDigest(shard), c.svcs[base].ShardDigest(shard); got != want {
				c.t.Fatalf("node %d shard %d digest %#x != node %d digest %#x", i, shard, got, base, want)
			}
			if got, want := svc.ShardJournal(shard), c.svcs[base].ShardJournal(shard); !reflect.DeepEqual(got, want) {
				c.t.Fatalf("node %d shard %d journal diverges from node %d:\n got %v\nwant %v",
					i, shard, base, got, want)
			}
		}
	}
}

// mustCommit waits for the shard's records to quorum-commit, bounded so a
// broken cluster fails the test instead of hanging it.
func mustCommit(t *testing.T, n *Node, shard int) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- n.WaitCommitted(shard) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WaitCommitted(%d): %v", shard, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("WaitCommitted(%d) stalled", shard)
	}
}

// closeEpochs closes one epoch on every shard directly on a leader's
// service and waits for the records to commit.
func closeEpochs(t *testing.T, c *cluster, leader int) {
	t.Helper()
	for shard := 0; shard < testShards; shard++ {
		if _, err := c.svcs[leader].CloseEpoch(shard); err != nil {
			t.Fatalf("closing epoch on shard %d: %v", shard, err)
		}
		mustCommit(t, c.nodes[leader], shard)
	}
}

// TestSingleNodeCommitsAlone: a one-member cluster is its own quorum —
// leadership on demand, every record committed by the leader's own
// durable copy.
func TestSingleNodeCommitsAlone(t *testing.T) {
	c := startCluster(t, 1)
	if !c.nodes[0].Campaign() {
		t.Fatal("single node failed to elect itself")
	}
	if !c.nodes[0].IsLeader() {
		t.Fatal("campaign won but IsLeader is false")
	}
	for client := uint64(1); client <= 8; client++ {
		if _, err := c.svcs[0].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d: %v", client, err)
		}
	}
	closeEpochs(t, c, 0)
	role, term, commit := c.nodes[0].Status()
	if role != namesvc.RoleLeader || term != 1 {
		t.Fatalf("status = (%v, %d, %d), want leader of term 1", role, term, commit)
	}
	if commit == 0 {
		t.Fatal("epoch records produced but commit index is 0")
	}
}

// TestClusterMatchesVolatileReference is the differential gate: the same
// client trace driven through a real Server+Client against a 3-replica
// cluster, and mirrored directly onto a single volatile Service, must
// produce identical grants — and leave the leader, both followers, and
// the reference with identical ledgers, digests, and journals.
func TestClusterMatchesVolatileReference(t *testing.T) {
	c := startCluster(t, 3)
	if !c.nodes[0].Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}

	srv, err := namesvc.NewServer(namesvc.ServerConfig{
		Service:      c.svcs[0],
		Gate:         c.nodes[0],
		ManualEpochs: true,
		Logf:         c.logf,
	})
	if err != nil {
		t.Fatalf("starting server: %v", err)
	}
	c.nodes[0].SetServer(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("binding client listener: %v", err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cl, err := namesvc.Dial(ln.Addr().String(), namesvc.ClientConfig{})
	if err != nil {
		t.Fatalf("dialing leader: %v", err)
	}
	defer cl.Close()
	if cl.Role() != namesvc.RoleLeader {
		t.Fatalf("leader welcome role = %v, want %v", cl.Role(), namesvc.RoleLeader)
	}

	ref := openReference(t)
	defer ref.Close()

	var mu sync.Mutex
	clusterGrants := make(map[uint64]namesvc.Grant)
	refGrants := make(map[uint64]namesvc.Grant)

	acquireBoth := func(clients []uint64) {
		t.Helper()
		for _, client := range clients {
			client := client
			err := cl.Acquire(client, func(g namesvc.Grant, err error) {
				if err != nil {
					t.Errorf("cluster acquire %d: %v", client, err)
					return
				}
				mu.Lock()
				clusterGrants[client] = g
				mu.Unlock()
			})
			if err != nil {
				t.Fatalf("submitting acquire %d: %v", client, err)
			}
		}
		for _, client := range clients {
			if _, err := ref.Acquire(client, nil); err != nil {
				t.Fatalf("reference acquire %d: %v", client, err)
			}
		}
	}
	epochBoth := func() {
		t.Helper()
		for shard := 0; shard < testShards; shard++ {
			clEpoch, _, err := cl.EpochSync(shard)
			if err != nil {
				t.Fatalf("cluster epoch on shard %d: %v", shard, err)
			}
			grants, err := ref.CloseEpoch(shard)
			if err != nil {
				t.Fatalf("reference epoch on shard %d: %v", shard, err)
			}
			for _, g := range grants {
				refGrants[g.Client] = g
			}
			if refEpoch := ref.ShardEpoch(shard); clEpoch != refEpoch {
				t.Fatalf("shard %d epoch: cluster %d, reference %d", shard, clEpoch, refEpoch)
			}
		}
	}

	// Round 1: a batch of acquires granted in one epoch per shard.
	round1 := make([]uint64, 0, 24)
	for client := uint64(1); client <= 24; client++ {
		round1 = append(round1, client)
	}
	acquireBoth(round1)
	epochBoth()

	// Round 2: half the holders release; the released names recirculate.
	type holding struct {
		client uint64
		name   int
	}
	mu.Lock()
	released := make([]holding, 0, len(round1)/2)
	for i, client := range round1 {
		if i%2 == 0 {
			released = append(released, holding{client, clusterGrants[client].Name})
		}
	}
	mu.Unlock()
	for _, h := range released {
		if err := cl.ReleaseSync(h.name); err != nil {
			t.Fatalf("cluster release of name %d: %v", h.name, err)
		}
		if err := ref.Release(h.client, h.name); err != nil {
			t.Fatalf("reference release of name %d: %v", h.name, err)
		}
	}

	// Round 3: fresh clients compete for the recirculated names.
	round3 := make([]uint64, 0, 12)
	for client := uint64(101); client <= 112; client++ {
		round3 = append(round3, client)
	}
	acquireBoth(round3)
	epochBoth()

	// The trace is identical, so the grants must be too — same name,
	// shard, and epoch, client by client. (Grant frames on the client
	// wire carry only those three fields; the client id is the map key.)
	mu.Lock()
	defer mu.Unlock()
	if len(clusterGrants) != len(refGrants) {
		t.Fatalf("cluster granted %d clients, reference %d", len(clusterGrants), len(refGrants))
	}
	for client, g := range clusterGrants {
		rg, ok := refGrants[client]
		if !ok || g.Name != rg.Name || g.Shard != rg.Shard || g.Epoch != rg.Epoch {
			t.Fatalf("client %d: cluster grant %+v, reference grant %+v", client, g, rg)
		}
	}

	// Every replica — leader included — must be byte-identical to the
	// unreplicated reference.
	c.waitConverged(0)
	c.assertReplicasMatch()
	if got, want := c.svcs[0].Digest(), ref.Digest(); got != want {
		t.Fatalf("cluster digest %#x != reference digest %#x", got, want)
	}
	for shard := 0; shard < testShards; shard++ {
		if got, want := c.svcs[0].ShardDigest(shard), ref.ShardDigest(shard); got != want {
			t.Fatalf("shard %d: cluster digest %#x != reference digest %#x", shard, got, want)
		}
		if got, want := c.svcs[0].ShardJournal(shard), ref.ShardJournal(shard); !reflect.DeepEqual(got, want) {
			t.Fatalf("shard %d journal diverges from reference:\n got %v\nwant %v", shard, got, want)
		}
	}
}

// TestFailoverFencesDeposedLeader: a leader that observes a higher term is
// fenced — its commit waiters fail, it stops admitting writes and
// redirects to the new leader, and the cluster reconverges under the new
// term. With pre-vote and leader stickiness a fresh campaign alone cannot
// depose a healthy leader (see TestPreVoteProtectsHealthyLeader), so the
// deposal is driven the way a peer frame carrying a higher term drives it.
func TestFailoverFencesDeposedLeader(t *testing.T) {
	c := startCluster(t, 3)
	if !c.nodes[0].Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}
	for client := uint64(1); client <= 16; client++ {
		if _, err := c.svcs[0].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d: %v", client, err)
		}
	}
	closeEpochs(t, c, 0)
	c.waitConverged(0)

	// Depose: node 0 sees a higher term and steps down. Node 1's freshness
	// equals the converged cluster's, so it wins as soon as a quorum stops
	// vouching for a live leader: its first poll only learns node 0's new
	// term, the next is granted by node 0 itself.
	_, term, _ := c.nodes[0].Status()
	c.nodes[0].observeTerm(term + 1)
	if c.nodes[0].IsLeader() {
		t.Fatal("deposed leader still claims leadership")
	}
	deadline := time.Now().Add(5 * time.Second)
	for !c.nodes[1].Campaign() {
		if time.Now().After(deadline) {
			t.Fatal("converged follower failed to take leadership")
		}
	}
	if err := c.nodes[0].WaitCommitted(0); err == nil {
		t.Fatal("WaitCommitted on the deposed leader returned nil")
	}
	if admit, _ := c.nodes[0].AdmitWrites(); admit {
		t.Fatal("deposed leader still admits writes")
	}
	// Once the new leader's stream reaches node 0, the redirect hint
	// names node 1's client address.
	for {
		role, hint := c.nodes[0].WireRole()
		if role == namesvc.RoleFollower && hint == c.peers[1].ClientAddr {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 0 reports (%v, %q), want follower redirecting to %q",
				role, hint, c.peers[1].ClientAddr)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The new leader serves: fresh clients, fresh epochs, quorum commits.
	for client := uint64(201); client <= 216; client++ {
		if _, err := c.svcs[1].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d on new leader: %v", client, err)
		}
	}
	closeEpochs(t, c, 1)
	c.waitConverged(1)
	c.assertReplicasMatch()
}

// TestFollowerCatchUpAfterRestart: a follower that was down while the
// cluster moved on restarts from its own WAL, rejoins, and is resynced —
// snapshot plus stream tail — to byte-identical state.
func TestFollowerCatchUpAfterRestart(t *testing.T) {
	c := startCluster(t, 3)
	if !c.nodes[0].Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}
	for client := uint64(1); client <= 12; client++ {
		if _, err := c.svcs[0].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d: %v", client, err)
		}
	}
	closeEpochs(t, c, 0)
	c.waitConverged(0)

	// Node 2 goes down; a quorum of two keeps committing without it.
	c.nodes[2].Close()
	c.svcs[2].Close()
	c.nodes[2], c.svcs[2] = nil, nil
	for client := uint64(101); client <= 124; client++ {
		if _, err := c.svcs[0].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d with node 2 down: %v", client, err)
		}
	}
	closeEpochs(t, c, 0)

	// Restart node 2 over the same sinks (its WAL survives) and the same
	// replication address. The leader's stream manager re-attaches it.
	svc2 := openReplica(t, c.sinks[2])
	ln, err := net.Listen("tcp", c.peers[2].ReplAddr)
	if err != nil {
		t.Fatalf("rebinding node 2's replication address: %v", err)
	}
	node2, err := Start(Config{
		NodeID:          2,
		Peers:           c.peers,
		Service:         svc2,
		Listener:        ln,
		ElectionTimeout: 200 * time.Millisecond,
		ManualElections: true,
		Logf:            c.logf,
	})
	if err != nil {
		t.Fatalf("restarting node 2: %v", err)
	}
	c.svcs[2], c.nodes[2] = svc2, node2

	// More traffic lands after the rejoin; everything converges.
	for client := uint64(201); client <= 208; client++ {
		if _, err := c.svcs[0].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d after rejoin: %v", client, err)
		}
	}
	closeEpochs(t, c, 0)
	c.waitConverged(0)
	c.assertReplicasMatch()
}

// syncFailSink fails every WAL segment fsync after the first ok ones,
// calling onFail once, on the flushing goroutine, as the first one fails.
type syncFailSink struct {
	durable.Sink
	ok     int64
	onFail func()
	syncs  atomic.Int64
	once   sync.Once
}

var errDiskFailed = errors.New("EIO")

func (s *syncFailSink) Create(name string) (durable.File, error) {
	f, err := s.Sink.Create(name)
	if err != nil || !strings.HasPrefix(name, "wal-") {
		return f, err
	}
	return &syncFailFile{File: f, sink: s}, nil
}

type syncFailFile struct {
	durable.File
	sink *syncFailSink
}

func (f *syncFailFile) Sync() error {
	s := f.sink
	if s.syncs.Add(1) <= s.ok {
		return f.File.Sync()
	}
	s.once.Do(s.onFail)
	return errDiskFailed
}

// TestFollowerFailsClosed: in a two-node cluster, whose quorum needs the
// follower, a follower whose WAL fsync fails nacks instead of
// acknowledging. The leader's commit index never covers a record produced
// after the failure, and no grant for the acquire the failed fsync was
// logging, or for any later one, reaches the client.
func TestFollowerFailsClosed(t *testing.T) {
	var leader atomic.Pointer[Node]
	var failedAt atomic.Uint64 // the leader's newest index when the fsync failed
	failed := make(chan struct{})
	bad := &syncFailSink{Sink: durable.NewMemSink(), ok: 3, onFail: func() {
		n := leader.Load()
		n.mu.Lock()
		if l := n.ldr; l != nil {
			failedAt.Store(l.nextIdx - 1)
		}
		n.mu.Unlock()
		close(failed)
	}}
	c := startClusterOver(t, [][]durable.Sink{memSinks(), {bad, durable.NewMemSink()}})
	leader.Store(c.nodes[0])
	srv, err := namesvc.NewServer(namesvc.ServerConfig{Service: c.svcs[0], Gate: c.nodes[0], Logf: c.logf})
	if err != nil {
		t.Fatal(err)
	}
	c.nodes[0].SetServer(srv)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close(); srv.Close() })
	if !c.nodes[0].Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}
	c.nodes[0].mu.Lock()
	lead := c.nodes[0].ldr
	c.nodes[0].mu.Unlock()
	cl, err := namesvc.Dial(ln.Addr().String(), namesvc.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Acquire on shard 0, one at a time, until the follower's fsync fails.
	svc := c.svcs[0]
	granted := make(chan uint64, 64)
	acquire := func(n int) {
		t.Helper()
		client := clientOnShard(svc, 0, n)
		if err := cl.Acquire(client, func(_ namesvc.Grant, err error) {
			if err == nil {
				granted <- client
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	n := 1
	for ; ; n++ {
		acquire(n)
		select {
		case <-granted:
			continue
		case <-failed:
		case <-time.After(10 * time.Second):
			t.Fatalf("acquire %d neither granted nor failed the follower's fsync", n)
		}
		break
	}
	// Keep producing: the follower refuses these, so nothing can commit.
	for later := n + 1; later <= n+8; later++ {
		acquire(later)
	}
	select {
	case client := <-granted:
		t.Fatalf("client %d granted after the follower's fsync failed (acquire %d was logging)",
			client, clientOnShard(svc, 0, n))
	case <-time.After(500 * time.Millisecond):
	}
	c.nodes[0].mu.Lock()
	commit, produced := lead.commit, lead.nextIdx-1
	c.nodes[0].mu.Unlock()
	if at := failedAt.Load(); commit > at {
		t.Fatalf("commit index %d covers records produced after the failure at %d (newest %d)", commit, at, produced)
	}
}

// TestStaleCandidateLosesElection: a follower missing quorum-committed
// records must not collect a quorum of votes — the freshness rule at
// work.
func TestStaleCandidateLosesElection(t *testing.T) {
	c := startCluster(t, 3)
	if !c.nodes[0].Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}
	// Node 2 is partitioned off (closed) before any records exist; its
	// slots are cleared so convergence checks cover only the live pair.
	c.nodes[2].Close()
	downSvc := c.svcs[2]
	defer downSvc.Close()
	c.nodes[2], c.svcs[2] = nil, nil
	for client := uint64(1); client <= 8; client++ {
		if _, err := c.svcs[0].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d: %v", client, err)
		}
	}
	closeEpochs(t, c, 0)
	c.waitConverged(0) // nodes 0 and 1 hold the committed records; node 2 does not

	// Restart node 2's replication endpoint only — same empty service, so
	// it is strictly staler than the quorum.
	ln, err := net.Listen("tcp", c.peers[2].ReplAddr)
	if err != nil {
		t.Fatalf("rebinding node 2: %v", err)
	}
	staleSvc := openReference(t)
	defer staleSvc.Close()
	stale, err := Start(Config{
		NodeID:          2,
		Peers:           c.peers,
		Service:         staleSvc,
		Listener:        ln,
		ElectionTimeout: 200 * time.Millisecond,
		ManualElections: true,
		Logf:            c.logf,
	})
	if err != nil {
		t.Fatalf("restarting node 2: %v", err)
	}
	defer stale.Close()

	if stale.Campaign() {
		t.Fatal("a candidate missing quorum-committed records won an election")
	}
}

func TestWireRoundTrips(t *testing.T) {
	var w wire.Writer

	appendHello(&w, 7, 2)
	if term, id, err := decodeHello(w.Bytes()); err != nil || term != 7 || id != 2 {
		t.Fatalf("hello round-trip: (%d, %d, %v)", term, id, err)
	}

	w.Reset()
	appendHelloAck(&w, 7, 3, []uint64{10, 0, 42})
	term, rec, pos, err := decodeHelloAck(w.Bytes())
	if err != nil || term != 7 || rec != 3 || !slices.Equal(pos, []uint64{10, 0, 42}) {
		t.Fatalf("hello-ack round-trip: (%d, %d, %v, %v)", term, rec, pos, err)
	}

	// A hello-ack claiming more positions than its bytes could hold must
	// be rejected, not allocated.
	w.Reset()
	w.Byte(kHelloAck)
	w.Uvarint(7)
	w.Uvarint(3)
	w.Uvarint(1 << 40)
	if _, _, _, err := decodeHelloAck(w.Bytes()); err == nil {
		t.Fatal("oversized hello-ack position count accepted")
	}

	for _, kind := range []byte{kVoteReq, kPreVoteReq} {
		w.Reset()
		appendPollReq(&w, kind, 9, 1, 4, 1234)
		if term, id, rec, p, err := decodePollReq(w.Bytes()); err != nil || term != 9 || id != 1 || rec != 4 || p != 1234 {
			t.Fatalf("poll-req %#x round-trip: (%d, %d, %d, %d, %v)", kind, term, id, rec, p, err)
		}
		for _, granted := range []bool{true, false} {
			w.Reset()
			appendPollResp(&w, kind+1, 9, granted)
			if term, g, err := decodePollResp(w.Bytes()); err != nil || term != 9 || g != granted {
				t.Fatalf("poll-resp %#x round-trip: (%d, %v, %v)", kind+1, term, g, err)
			}
		}
	}

	w.Reset()
	appendSnap(&w, 5, 1, []byte("shard-image"))
	if term, shard, payload, err := decodeSnap(w.Bytes()); err != nil || term != 5 || shard != 1 || string(payload) != "shard-image" {
		t.Fatalf("snap round-trip: (%d, %d, %q, %v)", term, shard, payload, err)
	}

	w.Reset()
	appendSnapEnd(&w, 5, 17, 12, 4)
	if term, idx, commit, rec, err := decodeSnapEnd(w.Bytes()); err != nil || term != 5 || idx != 17 || commit != 12 || rec != 4 {
		t.Fatalf("snap-end round-trip: (%d, %d, %d, %d, %v)", term, idx, commit, rec, err)
	}

	w.Reset()
	appendAppend(&w, 5, 18, 12, 0, []byte("record"))
	if term, idx, commit, shard, payload, err := decodeAppend(w.Bytes()); err != nil || term != 5 || idx != 18 || commit != 12 || shard != 0 || string(payload) != "record" {
		t.Fatalf("append round-trip: (%d, %d, %d, %d, %q, %v)", term, idx, commit, shard, payload, err)
	}

	w.Reset()
	appendHeartbeat(&w, 5, 12)
	if term, commit, err := decodeHeartbeat(w.Bytes()); err != nil || term != 5 || commit != 12 {
		t.Fatalf("heartbeat round-trip: (%d, %d, %v)", term, commit, err)
	}

	w.Reset()
	appendAck(&w, 5, 18)
	if term, idx, err := decodeAck(w.Bytes()); err != nil || term != 5 || idx != 18 {
		t.Fatalf("ack round-trip: (%d, %d, %v)", term, idx, err)
	}

	w.Reset()
	appendNack(&w, 6)
	if term, err := decodeNack(w.Bytes()); err != nil || term != 6 {
		t.Fatalf("nack round-trip: (%d, %v)", term, err)
	}
}

// TestElectionFramesGolden pins the exact bytes of the four election
// frames, so nodes of two builds still elect a leader mid rolling upgrade.
func TestElectionFramesGolden(t *testing.T) {
	var w wire.Writer
	frame := func(encode func()) string {
		w.Reset()
		encode()
		return hex.EncodeToString(w.Bytes())
	}
	for _, c := range []struct {
		name, got, want string
	}{
		{"vote-req", frame(func() { appendPollReq(&w, kVoteReq, 300, 2, 7, 70000) }), "63ac020207f0a204"},
		{"vote-resp", frame(func() { appendPollResp(&w, kVoteResp, 300, true) }), "64ac0201"},
		{"pre-vote-req", frame(func() { appendPollReq(&w, kPreVoteReq, 301, 2, 7, 70000) }), "6bad020207f0a204"},
		{"pre-vote-resp", frame(func() { appendPollResp(&w, kPreVoteResp, 300, false) }), "6cac0200"},
	} {
		if c.got != c.want {
			t.Errorf("%s frame %s, want %s", c.name, c.got, c.want)
		}
	}
}

func TestMetaPersistence(t *testing.T) {
	store := sinkMeta{sink: mustDirSink(t, t.TempDir()), base: metaBase}

	m, err := store.load()
	if err != nil {
		t.Fatalf("loading missing meta: %v", err)
	}
	if m.Term != 0 || m.VotedFor != -1 || m.LastRecTerm != 0 || m.CompactFloor != 0 {
		t.Fatalf("zero meta = %+v, want term 0, no vote, floor 0", m)
	}

	want := meta{Seq: 1, Term: 9, VotedFor: 2, LastRecTerm: 7, CompactFloor: 31}
	if err := store.save(want); err != nil {
		t.Fatalf("saving meta: %v", err)
	}
	got, err := store.load()
	if err != nil {
		t.Fatalf("reloading meta: %v", err)
	}
	if got != want {
		t.Fatalf("meta round-trip: got %+v, want %+v", got, want)
	}

	// Sink-backed store: same contract over alternating slots, newest
	// valid slot wins.
	sink := durable.NewMemSink()
	ss := sinkMeta{sink: sink, base: metaBase}
	if m, err := ss.load(); err != nil || m.VotedFor != -1 {
		t.Fatalf("empty sink load: (%+v, %v)", m, err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		if err := ss.save(meta{Seq: seq, Term: seq + 10, VotedFor: 1, CompactFloor: seq * 4}); err != nil {
			t.Fatalf("sink save seq %d: %v", seq, err)
		}
	}
	got, err = ss.load()
	if err != nil {
		t.Fatalf("sink reload: %v", err)
	}
	if want := (meta{Seq: 3, Term: 13, VotedFor: 1, CompactFloor: 12}); got != want {
		t.Fatalf("sink meta round-trip: got %+v, want %+v", got, want)
	}
}

// startMetaNode starts a node of a members-strong cluster whose election
// state lives at dir/repl-meta, the MetaPath blnamed passes. Elections are
// manual and no peer is ever dialled.
func startMetaNode(t *testing.T, dir string, members int) *Node {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []PeerSpec{{ReplAddr: ln.Addr().String()}}
	for len(peers) < members {
		peers = append(peers, PeerSpec{ReplAddr: "unreachable"})
	}
	svc := openReplica(t, memSinks())
	t.Cleanup(func() { svc.Close() })
	n, err := Start(Config{
		NodeID:          0,
		Peers:           peers,
		Service:         svc,
		Listener:        ln,
		MetaPath:        filepath.Join(dir, "repl-meta"),
		ManualElections: true,
		Logf:            testLogf(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func termAndVote(n *Node) (uint64, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term, n.votedFor
}

// legacyMeta is the single rename-installed file older releases kept at
// MetaPath: term 7, vote spent on node 2.
const legacyMeta = `{"seq":3,"term":7,"voted_for":2,"last_record_term":6,"compact_floor":0}`

// TestMetaPathRecoversLegacyFile: a node upgraded in place over a data dir
// holding only the legacy file keeps its term and its spent vote.
func TestMetaPathRecoversLegacyFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "repl-meta"), []byte(legacyMeta), 0o644); err != nil {
		t.Fatal(err)
	}
	n := startMetaNode(t, dir, 3)
	if term, vote := termAndVote(n); term != 7 || vote != 2 {
		t.Fatalf("recovered term %d, vote %d; want term 7, vote 2", term, vote)
	}

	// A rename-installed file is never torn, so one that does not parse is
	// damage, and the node refuses to start rather than forget the vote.
	damaged := t.TempDir()
	if err := os.WriteFile(filepath.Join(damaged, "repl-meta"), []byte(legacyMeta[:20]), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := (sinkMeta{sink: mustDirSink(t, damaged), base: metaBase}).load(); err == nil {
		t.Fatal("a damaged legacy file loaded")
	}
}

func mustDirSink(t *testing.T, dir string) *durable.DirSink {
	t.Helper()
	sink, err := durable.NewDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	return sink
}

// TestMetaPathRestartsFromSlots: what a node persists after the upgrade
// goes to the slots, and a restart recovers it from them — the newer Seq
// wins over the legacy file that is still on disk.
func TestMetaPathRestartsFromSlots(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "repl-meta"), []byte(legacyMeta), 0o644); err != nil {
		t.Fatal(err)
	}
	n := startMetaNode(t, dir, 1)
	if !n.Campaign() {
		t.Fatal("a one-member cluster failed to elect itself")
	}
	if term, vote := termAndVote(n); term != 8 || vote != 0 {
		t.Fatalf("after the campaign: term %d, vote %d; want term 8, vote 0", term, vote)
	}
	n.Close()
	for _, slot := range []string{"repl-meta.a", "repl-meta.b"} {
		if _, err := os.Stat(filepath.Join(dir, slot)); err != nil {
			t.Fatalf("slot %s: %v", slot, err)
		}
	}
	n = startMetaNode(t, dir, 1)
	if term, vote := termAndVote(n); term != 8 || vote != 0 {
		t.Fatalf("restarted with term %d, vote %d; want term 8, vote 0", term, vote)
	}
}
