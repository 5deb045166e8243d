package repl

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"ballsintoleaves/internal/faultnet"
	"ballsintoleaves/internal/namesvc"
)

// faultCluster is a cluster whose peer links all ride faultnet proxies:
// every ordered pair (i, j) gets its own proxy and link, so a node can be
// partitioned from the rest — in one or both directions — without
// touching the node itself. Node i's Peers view routes peer j through
// proxy[i][j]; client addresses stay canonical so redirect hints are
// comparable across views.
type faultCluster struct {
	*cluster
	links   [][]*faultnet.Link  // links[i][j]: traffic node i originates toward j
	proxies [][]*faultnet.Proxy // proxies[i][j]: node i's route to node j
}

func startFaultCluster(t *testing.T, size int, opts ...func(*Config)) *faultCluster {
	t.Helper()
	return startFaultClusterWithClients(t, size, nil, opts...)
}

// startFaultClusterWithClients lets the caller supply real client-facing
// addresses (chaos tests run namesvc Servers behind client proxies, and
// redirect hints must name addresses sessions can dial); nil keeps the
// placeholder addresses plain repl tests use.
func startFaultClusterWithClients(t *testing.T, size int, clientAddrs []string, opts ...func(*Config)) *faultCluster {
	t.Helper()
	fc := &faultCluster{cluster: &cluster{t: t, logf: testLogf(t)}}
	c := fc.cluster

	lns := make([]net.Listener, size)
	for i := 0; i < size; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("binding replication listener: %v", err)
		}
		lns[i] = ln
		clientAddr := "client-" + ln.Addr().String()
		if clientAddrs != nil {
			clientAddr = clientAddrs[i]
		}
		c.peers = append(c.peers, PeerSpec{
			ReplAddr:   ln.Addr().String(),
			ClientAddr: clientAddr,
		})
	}

	fc.links = make([][]*faultnet.Link, size)
	fc.proxies = make([][]*faultnet.Proxy, size)
	for i := 0; i < size; i++ {
		fc.links[i] = make([]*faultnet.Link, size)
		fc.proxies[i] = make([]*faultnet.Proxy, size)
		for j := 0; j < size; j++ {
			if j == i {
				continue
			}
			link := faultnet.NewLink(fmt.Sprintf("repl-%d->%d", i, j))
			p, err := faultnet.NewProxy("127.0.0.1:0", c.peers[j].ReplAddr, link)
			if err != nil {
				t.Fatalf("starting proxy %d->%d: %v", i, j, err)
			}
			fc.links[i][j] = link
			fc.proxies[i][j] = p
		}
	}
	t.Cleanup(func() {
		for i := range fc.proxies {
			for j := range fc.proxies[i] {
				if fc.proxies[i][j] != nil {
					fc.proxies[i][j].Close()
				}
			}
		}
	})

	for i := 0; i < size; i++ {
		// Node i's view: itself at its real address, every peer behind
		// i's outbound proxy for that peer.
		view := make([]PeerSpec, size)
		copy(view, c.peers)
		for j := 0; j < size; j++ {
			if j != i {
				view[j].ReplAddr = fc.proxies[i][j].Addr()
			}
		}
		sinks := memSinks()
		svc := openReplica(t, sinks)
		cfg := Config{
			NodeID:          i,
			Peers:           view,
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
		c.sinks = append(c.sinks, sinks)
		c.svcs = append(c.svcs, svc)
		c.nodes = append(c.nodes, node)
	}
	t.Cleanup(c.close)
	return fc
}

// partitionNode cuts node x off in both directions: every link touching x
// drops, and established flows are reset so stream failures surface at
// once instead of after an I/O timeout. New dials toward x (and from x)
// stall like lost SYNs until heal.
func (fc *faultCluster) partitionNode(x int) {
	for j := range fc.links {
		if j == x {
			continue
		}
		fc.links[x][j].Partition(false)
		fc.links[x][j].ResetConns()
		fc.links[j][x].Partition(false)
		fc.links[j][x].ResetConns()
	}
}

// healNode clears every fault on links touching node x. Dial attempts
// held at the partition gate complete immediately.
func (fc *faultCluster) healNode(x int) {
	for j := range fc.links {
		if j == x {
			continue
		}
		fc.links[x][j].Heal()
		fc.links[j][x].Heal()
	}
}

// TestFollowerPartitionSnapshotCatchUp: a follower partitioned while the
// leader seals more than two full snapshot cycles of records must, on
// heal, be re-attached through the snapshot+tail path and converge to a
// byte-identical replica — twice in a row, so re-attachment is a steady
// state and not a one-shot.
func TestFollowerPartitionSnapshotCatchUp(t *testing.T) {
	fc := startFaultCluster(t, 3)
	c := fc.cluster
	if !c.nodes[0].Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}
	nextClient := uint64(1)
	churn := func(epochs int) {
		t.Helper()
		for e := 0; e < epochs; e++ {
			for k := 0; k < 2; k++ {
				if _, err := c.svcs[0].Acquire(nextClient, nil); err != nil {
					t.Fatalf("acquire %d: %v", nextClient, err)
				}
				nextClient++
			}
			closeEpochs(t, c, 0)
		}
	}

	churn(2)
	c.waitConverged(0)
	c.assertReplicasMatch()

	for cycle := 0; cycle < 2; cycle++ {
		fc.partitionNode(2)
		// SnapshotEvery is 8 and each epoch close seals one record per
		// shard, so 17 epochs put every shard more than two snapshot
		// cycles ahead of the cut-off follower. Quorum is the live pair.
		churn(17)

		behind := c.svcs[2].Positions(nil)
		ahead := c.svcs[0].Positions(nil)
		for shard, pos := range ahead {
			if pos < behind[shard]+16 {
				t.Fatalf("cycle %d shard %d: leader at %d, follower at %d — partition did not span 2 snapshot cycles",
					cycle, shard, pos, behind[shard])
			}
		}

		fc.healNode(2)
		// Post-heal records ride the stream tail after the snapshot
		// attach point.
		churn(1)
		c.waitConverged(0)
		c.assertReplicasMatch()
	}
}

// TestMinorityLeaderFencesAfterPartition: a leader partitioned into a
// minority briefly keeps accepting writes it can never commit (that is
// the safe half of split-brain: nothing is acknowledged), but
// check-quorum bounds the window — within about one election timeout of
// losing its followers it steps down on its own, with no heal and no
// higher term required: its in-flight WaitCommitted fails, it stops
// admitting writes, and its last-election reason records the step-down.
// The majority then elects a new leader, and on heal the old leader's
// divergent tail is overwritten by the new leader's snapshot so the
// cluster reconverges byte-identical.
func TestMinorityLeaderFencesAfterPartition(t *testing.T) {
	fc := startFaultCluster(t, 3)
	c := fc.cluster
	if !c.nodes[0].Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}
	for client := uint64(1); client <= 8; client++ {
		if _, err := c.svcs[0].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d: %v", client, err)
		}
	}
	closeEpochs(t, c, 0)
	c.waitConverged(0)
	c.assertReplicasMatch()

	fc.partitionNode(0)

	// Doomed writes on the minority leader: applied locally, never
	// committed. WaitCommitted must block (and later fail) — these
	// records can never reach a quorum.
	for client := uint64(201); client <= 204; client++ {
		if _, err := c.svcs[0].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d on minority leader: %v", client, err)
		}
	}
	for shard := 0; shard < testShards; shard++ {
		if _, err := c.svcs[0].CloseEpoch(shard); err != nil {
			t.Fatalf("closing doomed epoch on shard %d: %v", shard, err)
		}
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- c.nodes[0].WaitCommitted(0) }()

	// The split-brain window: for a moment the minority leader does not
	// yet know it lost its followers — but it also has not acknowledged
	// anything, and check-quorum bounds the window.
	if !c.nodes[0].IsLeader() {
		t.Fatal("partitioned leader stepped down before its lease could expire")
	}
	select {
	case err := <-waitErr:
		t.Fatalf("WaitCommitted on the minority leader returned early: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Check-quorum: within a few election timeouts the minority leader
	// steps down on its own — no heal, no higher term in sight.
	deadline := time.Now().Add(15 * time.Second)
	for c.nodes[0].IsLeader() {
		if time.Now().After(deadline) {
			t.Fatal("minority leader did not step down via check-quorum")
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-waitErr:
		if !errors.Is(err, errDeposed) {
			t.Fatalf("in-flight WaitCommitted: %v, want errDeposed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight WaitCommitted did not fail after the step-down")
	}
	if admit, _ := c.nodes[0].AdmitWrites(); admit {
		t.Fatal("stepped-down leader still admits writes")
	}
	if _, _, reason, _ := c.nodes[0].WireReplStats(); !strings.HasPrefix(reason, "check-quorum-stepdown: ") {
		t.Fatalf("election reason = %q, want check-quorum-stepdown: ...", reason)
	}

	// The majority elects node 1 once node 2's leader contact lapses —
	// until then stickiness makes node 2 refuse the pre-vote, which is
	// the stability property, not a defect, so the campaign retries.
	won := false
	for i := 0; i < 100 && !won; i++ {
		won = c.nodes[1].Campaign()
		if !won {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !won {
		t.Fatal("majority follower failed to take leadership")
	}
	for client := uint64(301); client <= 308; client++ {
		if _, err := c.svcs[1].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d on new leader: %v", client, err)
		}
	}
	closeEpochs(t, c, 1)

	fc.healNode(0)

	// Heal lets the new leader's stream reach node 0 and redirect it.
	for {
		role, hint := c.nodes[0].WireRole()
		if role == namesvc.RoleFollower && hint == c.peers[1].ClientAddr {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 0 reports (%v, %q), want follower redirecting to %q", role, hint, c.peers[1].ClientAddr)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The old leader's divergent tail (the doomed epochs) is overwritten
	// by the new leader's catch-up snapshot; everything reconverges.
	for client := uint64(401); client <= 404; client++ {
		if _, err := c.svcs[1].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d after heal: %v", client, err)
		}
	}
	closeEpochs(t, c, 1)
	c.waitConverged(1)
	c.assertReplicasMatch()
}
