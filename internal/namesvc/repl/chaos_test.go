package repl

import (
	"net"
	"reflect"
	"testing"
	"time"

	"ballsintoleaves/internal/faultnet"
	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/namesvc/grantcheck"
)

// TestChaosLeaderPartitionUnderSessionLoad is the acceptance gate for the
// chaos lab: a 3-node cluster serving real wire traffic through faultnet
// proxies, Session clients churning grants, and the compiled
// partition-leader schedule cutting the leader off mid-load — repl links
// and client link both. A follower is campaigned while the partition
// holds. No client ever re-dials by hand. At the end: zero duplicate
// grants, every pre-fault acknowledged grant still held and releasable on
// the new leader, all three replicas byte-identical after heal, and the
// fired fault sequence equal to the schedule compiled twice from the same
// seed.
func TestChaosLeaderPartitionUnderSessionLoad(t *testing.T) {
	const (
		chaosSeed     = 42
		chaosDuration = 2 * time.Second
		holderGrants  = 8
	)

	// Client-facing listeners come first: the mesh puts a client proxy in
	// front of each, and the proxied address is each node's canonical
	// ClientAddr — the redirect hint sessions dial.
	clientLns := make([]net.Listener, 3)
	clientTargets := make([]string, 3)
	for i := range clientLns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("binding client listener %d: %v", i, err)
		}
		clientLns[i], clientTargets[i] = ln, ln.Addr().String()
	}

	fc := startFaultClusterWithClients(t, 3, clientTargets)
	c := fc.cluster
	clientAddrs := make([]string, 3)
	for i := range c.nodes {
		clientAddrs[i] = c.peers[i].ClientAddr
		srv, err := namesvc.NewServer(namesvc.ServerConfig{
			Service:   c.svcs[i],
			Gate:      c.nodes[i],
			IOTimeout: 2 * time.Second,
			Logf:      c.logf,
		})
		if err != nil {
			t.Fatalf("starting server %d: %v", i, err)
		}
		c.nodes[i].SetServer(srv)
		go srv.Serve(clientLns[i])
		t.Cleanup(func() { srv.Close() })
	}
	if !c.nodes[0].Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}

	// The holder session acquires before the fault and holds across it:
	// its grants are the "every acknowledged grant survives failover"
	// half of the invariant. Churn sessions acquire and release
	// continuously through every fault.
	load, err := grantcheck.Start(grantcheck.Config{
		Session: namesvc.SessionConfig{
			Addrs:          clientAddrs,
			Client:         namesvc.ClientConfig{Timeout: 300 * time.Millisecond},
			OpTimeout:      500 * time.Millisecond,
			ConnectTimeout: 10 * time.Second,
			BackoffBase:    10 * time.Millisecond,
			BackoffMax:     100 * time.Millisecond,
		},
		Hold:  holderGrants,
		Churn: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer load.Close()

	// Compile the fault schedule and drive it. The applier maps the
	// scenario's "leader" target onto node 0 — repl links and client
	// link together, so the leader is cut off from peers and clients at
	// the same instant, the way a real network cut behaves.
	events, err := faultnet.Compile("partition-leader", chaosDuration, chaosSeed)
	if err != nil {
		t.Fatalf("compiling schedule: %v", err)
	}
	partitioned := make(chan struct{})
	driver := faultnet.NewDriver(events, func(e faultnet.Event) {
		fc.mesh.Apply(e, 0)
		if e.Action == faultnet.ActPartition {
			close(partitioned)
		}
	}, c.logf)
	stopDriver := make(chan struct{})
	defer close(stopDriver)
	driverDone := make(chan struct{})
	go func() { driver.Run(stopDriver); close(driverDone) }()

	// While the partition holds, the majority elects a new leader. The
	// fresher follower wins; a split vote resolves on retry.
	select {
	case <-partitioned:
	case <-time.After(10 * time.Second):
		t.Fatal("schedule never fired the partition")
	}
	newLeader := -1
	for deadline := time.Now().Add(10 * time.Second); newLeader < 0; {
		for _, cand := range []int{1, 2} {
			if c.nodes[cand].Campaign() {
				newLeader = cand
				break
			}
		}
		if newLeader < 0 {
			if time.Now().After(deadline) {
				t.Fatal("majority failed to elect a leader during the partition")
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	select {
	case <-driverDone:
	case <-time.After(30 * time.Second):
		t.Fatal("schedule driver did not finish")
	}
	// Load continues past the heal so the old leader's fencing and
	// resync happen under traffic, then the churn drains and every
	// session settles: the holder re-reaches a leader, its grants and
	// every churn straggler release.
	time.Sleep(500 * time.Millisecond)
	res, err := load.Settle(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// Invariant: zero duplicate grants across every session and fault.
	if len(res.Duplicates) != 0 {
		t.Fatalf("duplicate grants under chaos: %v", res.Duplicates)
	}
	// Invariant: every pre-fault acknowledged grant was reclaimed onto
	// the new leader — none lost, all still held, all releasable.
	if res.Revoked != 0 {
		t.Fatalf("holder counters %+v: pre-fault grants lost in failover", load.Holder().Counters())
	}
	if res.Held != holderGrants {
		t.Fatalf("holder held %d grants, want %d", res.Held, holderGrants)
	}

	// Invariant: after heal every replica — the fenced ex-leader
	// included — is byte-identical.
	c.waitConverged(newLeader)
	c.assertReplicasMatch()

	// Invariant: the fault sequence is seed-deterministic — the same
	// compile yields the same events, and what fired is what compiled.
	recompiled, err := faultnet.Compile("partition-leader", chaosDuration, chaosSeed)
	if err != nil {
		t.Fatalf("recompiling schedule: %v", err)
	}
	if !reflect.DeepEqual(events, recompiled) {
		t.Fatalf("same seed compiled different schedules:\n%v\n%v", events, recompiled)
	}
	if fired := driver.Fired(); !reflect.DeepEqual(fired, events) {
		t.Fatalf("fired events diverge from the schedule:\nfired %v\nwant  %v", fired, events)
	}
}
