package repl

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"ballsintoleaves/internal/faultnet"
	"ballsintoleaves/internal/namesvc"
)

// faultCluster is a cluster whose peer links all ride a faultnet.Mesh:
// every ordered pair (i, j) gets its own proxy and link, so a node can be
// partitioned from the rest — in one or both directions — without
// touching the node itself. Node i's Peers view routes peer j through
// i's proxy toward j.
type faultCluster struct {
	*cluster
	mesh *faultnet.Mesh
}

func startFaultCluster(t *testing.T, size int, opts ...func(*Config)) *faultCluster {
	t.Helper()
	return startFaultClusterWithClients(t, size, nil, opts...)
}

// startFaultClusterWithClients also puts the mesh's client proxies in
// front of real client-facing listeners (chaos tests run namesvc Servers
// on clientTargets); each node then advertises its client proxy, since
// redirect hints must name addresses sessions dial. nil keeps the
// placeholder client addresses plain repl tests use.
func startFaultClusterWithClients(t *testing.T, size int, clientTargets []string, opts ...func(*Config)) *faultCluster {
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
		c.peers = append(c.peers, PeerSpec{
			ReplAddr:   ln.Addr().String(),
			ClientAddr: "client-" + ln.Addr().String(),
		})
	}

	var clientRoute func(i int) (string, string)
	if clientTargets != nil {
		clientRoute = func(i int) (string, string) { return "127.0.0.1:0", clientTargets[i] }
	}
	mesh, err := faultnet.NewMesh(size,
		func(i, j int) (string, string) { return "127.0.0.1:0", c.peers[j].ReplAddr },
		clientRoute)
	if err != nil {
		t.Fatalf("starting fault mesh: %v", err)
	}
	t.Cleanup(mesh.Close)
	fc.mesh = mesh
	if clientTargets != nil {
		for i := range c.peers {
			c.peers[i].ClientAddr = mesh.ClientAddr(i)
		}
	}

	for i := 0; i < size; i++ {
		// Node i's view: itself at its real address, every peer behind
		// i's outbound proxy for that peer.
		view := make([]PeerSpec, size)
		copy(view, c.peers)
		for j := 0; j < size; j++ {
			if j != i {
				view[j].ReplAddr = mesh.PeerAddr(i, j)
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
		fc.mesh.Partition(2, false)
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

		fc.mesh.Heal(2)
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

	fc.mesh.Partition(0, false)

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

	fc.mesh.Heal(0)

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
