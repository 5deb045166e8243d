package repl

import (
	"net"
	"slices"
	"testing"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/namesvc/durable"
	"ballsintoleaves/internal/namesvc/grantcheck"
)

// TestSessionExactlyOnceAcrossFailovers: one holder session and one
// churn session live through N successive kill-9 leader failovers — the
// leader's server, node, and service all die in place each round, a
// survivor is elected, and the dead member restarts from its WAL on its
// old addresses. After every failover the holder's grants are reclaimed
// exactly once: the same names, none lost, none duplicated, and the
// session counters only ever grow. At the end every grant is releasable
// exactly once and all three replicas are byte-identical.
func TestSessionExactlyOnceAcrossFailovers(t *testing.T) {
	const (
		members      = 3
		rounds       = 3
		holderGrants = 8
	)

	// Client listeners come first: their addresses are the redirect
	// hints, so they must be what sessions actually dial.
	clientLns := make([]net.Listener, members)
	clientAddrs := make([]string, members)
	replLns := make([]net.Listener, members)
	peers := make([]PeerSpec, members)
	for i := 0; i < members; i++ {
		cln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("binding client listener %d: %v", i, err)
		}
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("binding repl listener %d: %v", i, err)
		}
		clientLns[i], replLns[i] = cln, rln
		clientAddrs[i] = cln.Addr().String()
		peers[i] = PeerSpec{ReplAddr: rln.Addr().String(), ClientAddr: clientAddrs[i]}
	}

	logf := testLogf(t)
	sinkSets := make([][]durable.Sink, members)
	svcs := make([]*namesvc.Service, members)
	nodes := make([]*Node, members)
	srvs := make([]*namesvc.Server, members)

	liveClientLns := make([]net.Listener, members)
	startMember := func(i int, replLn, clientLn net.Listener) {
		t.Helper()
		liveClientLns[i] = clientLn
		svc := openReplica(t, sinkSets[i])
		node, err := Start(Config{
			NodeID:          i,
			Peers:           peers,
			Service:         svc,
			Listener:        replLn,
			ElectionTimeout: 200 * time.Millisecond,
			ManualElections: true,
			Logf:            logf,
		})
		if err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		srv, err := namesvc.NewServer(namesvc.ServerConfig{
			Service:   svc,
			Gate:      node,
			IOTimeout: 2 * time.Second,
			Logf:      logf,
		})
		if err != nil {
			t.Fatalf("starting server %d: %v", i, err)
		}
		node.SetServer(srv)
		go srv.Serve(clientLn)
		svcs[i], nodes[i], srvs[i] = svc, node, srv
	}
	for i := 0; i < members; i++ {
		sinkSets[i] = memSinks()
		startMember(i, replLns[i], clientLns[i])
	}
	t.Cleanup(func() {
		for i := 0; i < members; i++ {
			if srvs[i] != nil {
				srvs[i].Close()
			}
			if nodes[i] != nil {
				nodes[i].Close()
			}
			if svcs[i] != nil {
				svcs[i].Close()
			}
		}
	})
	if !nodes[0].Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}

	// One holder and one churn session: with the holder, the churn gives
	// the duplicate check two live sessions to catch a double-grant
	// between.
	load, err := grantcheck.Start(grantcheck.Config{
		Session: namesvc.SessionConfig{
			Addrs:          clientAddrs,
			Client:         namesvc.ClientConfig{Timeout: 300 * time.Millisecond},
			OpTimeout:      500 * time.Millisecond,
			ConnectTimeout: 10 * time.Second,
			BackoffBase:    10 * time.Millisecond,
			BackoffMax:     100 * time.Millisecond,
			Logf:           logf,
		},
		Hold:  holderGrants,
		Churn: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer load.Close()
	holder := load.Holder()
	wantNames := holder.Held()

	leader := 0
	var prevCounters namesvc.SessionCounters
	for round := 1; round <= rounds; round++ {
		// Kill-9: the leader's node, server, and service die in place —
		// no draining, no goodbye frames. The node is fenced FIRST so the
		// server teardown's connection-death releases cannot replicate:
		// a real crash never sends them, and letting them stream would
		// legitimately free the holder's names on the survivors.
		dead := leader
		nodes[dead].Close()
		liveClientLns[dead].Close() // Serve's owner closes the listener
		srvs[dead].Close()
		svcs[dead].Close()
		srvs[dead], nodes[dead], svcs[dead] = nil, nil, nil

		// A survivor campaigns; stickiness holds until the dead leader's
		// contact lapses, so the campaign retries.
		survivors := []int{(dead + 1) % members, (dead + 2) % members}
		leader = -1
		for deadline := time.Now().Add(15 * time.Second); leader < 0; {
			for _, cand := range survivors {
				if nodes[cand].Campaign() {
					leader = cand
					break
				}
			}
			if leader < 0 {
				if time.Now().After(deadline) {
					t.Fatalf("round %d: survivors failed to elect a leader", round)
				}
				time.Sleep(50 * time.Millisecond)
			}
		}

		// The holder self-heals onto the new leader — no manual re-dial.
		healDeadline := time.Now().Add(15 * time.Second)
		for {
			if _, err := holder.StatsSync(); err == nil {
				break
			}
			if time.Now().After(healDeadline) {
				t.Fatalf("round %d: holder never re-reached a leader", round)
			}
			time.Sleep(20 * time.Millisecond)
		}

		// Exactly-once reclaim: the same names, none lost, none added.
		held := holder.Held()
		if len(held) != holderGrants {
			for i, svc := range svcs {
				if svc != nil {
					t.Logf("debug: node %d positions %v", i, svc.Positions(nil))
				}
			}
			t.Fatalf("round %d: holder holds %d grants, want %d: %v", round, len(held), holderGrants, held)
		}
		for name := range held {
			if _, ok := wantNames[name]; !ok {
				t.Fatalf("round %d: holder holds name %d it was never granted", round, name)
			}
		}
		hc := holder.Counters()
		if hc.Lost != 0 {
			t.Fatalf("round %d: holder counters %+v — grants lost in failover", round, hc)
		}
		if hc.Reclaimed < prevCounters.Reclaimed+holderGrants {
			t.Fatalf("round %d: reclaimed %d after %d — the full grant set was not re-attached",
				round, hc.Reclaimed, prevCounters.Reclaimed)
		}
		if hc.Reconnects < prevCounters.Reconnects+1 || hc.Reconnects < uint64(round) {
			t.Fatalf("round %d: reconnects %d did not grow monotonically from %d",
				round, hc.Reconnects, prevCounters.Reconnects)
		}
		prevCounters = hc

		// Kill-9 restart: the dead member comes back from its surviving
		// WAL on its old addresses and is resynced by the leader. The
		// rebind retries briefly: the dead server's accept loop releases
		// the address asynchronously.
		rebind := func(addr string) net.Listener {
			t.Helper()
			for deadline := time.Now().Add(10 * time.Second); ; {
				ln, err := net.Listen("tcp", addr)
				if err == nil {
					return ln
				}
				if time.Now().After(deadline) {
					t.Fatalf("round %d: rebinding %s for node %d: %v", round, addr, dead, err)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		startMember(dead, rebind(peers[dead].ReplAddr), rebind(clientAddrs[dead]))
		// Wait for that resync before the next kill. The "dead" member's
		// WAL holds what no real kill-9 would have written — the releases
		// its server's teardown applied after the fence — and until the
		// leader's snapshot overwrites them they make it look *fresher*
		// than the survivors: killing the leader first can elect it, and
		// its never-replicated releases then cost the holder its names.
		for deadline := time.Now().Add(10 * time.Second); !slices.Equal(
			svcs[dead].Positions(nil), svcs[leader].Positions(nil)); {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: restarted node %d was never resynced by leader %d", round, dead, leader)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Every holder grant releases exactly once on the final leader; churn
	// stragglers (releases that timed out mid-failover) drain too.
	res, err := load.Settle(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Duplicates) != 0 {
		t.Fatalf("duplicate grants across failovers: %v", res.Duplicates)
	}

	// All three replicas — the twice-restarted members included — end
	// byte-identical.
	c := &cluster{t: t, peers: peers, sinks: sinkSets, svcs: svcs, nodes: nodes, logf: logf}
	c.waitConverged(leader)
	c.assertReplicasMatch()
}
