package repl

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"ballsintoleaves/internal/faultnet"
	"ballsintoleaves/internal/namesvc"
)

// grantTable is the cross-session duplicate detector. The discipline is
// free-at-release-submit: a name is cleared from the table before its
// release frame is handed to the session, because from that moment the
// server may free and re-grant it at any time — counting it held past
// that point would flag legitimate re-grants as duplicates. A revocation
// (OnGrantLost) also clears, since the server has taken the name back.
// With that discipline, any grant of a name still in the table is a true
// duplicate: two live holders acknowledged for one name.
type grantTable struct {
	mu    sync.Mutex
	owner map[int]string // name -> holder label
	dups  []string
}

func newGrantTable() *grantTable {
	return &grantTable{owner: make(map[int]string)}
}

func (gt *grantTable) granted(name int, who string) {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	if prev, ok := gt.owner[name]; ok {
		gt.dups = append(gt.dups, fmt.Sprintf("name %d granted to %s while held by %s", name, who, prev))
	}
	gt.owner[name] = who
}

func (gt *grantTable) cleared(name int, who string) {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	if gt.owner[name] == who {
		delete(gt.owner, name)
	}
}

func (gt *grantTable) duplicates() []string {
	gt.mu.Lock()
	defer gt.mu.Unlock()
	return append([]string(nil), gt.dups...)
}

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

	// Client-facing listeners and their fault proxies come first: the
	// canonical ClientAddr of each node — the redirect hint — must be the
	// proxied address sessions actually dial.
	clientLns := make([]net.Listener, 3)
	clientLinks := make([]*faultnet.Link, 3)
	clientAddrs := make([]string, 3)
	for i := range clientLns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("binding client listener %d: %v", i, err)
		}
		clientLns[i] = ln
		clientLinks[i] = faultnet.NewLink(fmt.Sprintf("client-%d", i))
		p, err := faultnet.NewProxy("127.0.0.1:0", ln.Addr().String(), clientLinks[i])
		if err != nil {
			t.Fatalf("starting client proxy %d: %v", i, err)
		}
		t.Cleanup(func() { p.Close() })
		clientAddrs[i] = p.Addr()
	}

	fc := startFaultClusterWithClients(t, 3, clientAddrs)
	c := fc.cluster
	for i := range c.nodes {
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

	table := newGrantTable()
	sessionCfg := func(label string, seed uint64) namesvc.SessionConfig {
		return namesvc.SessionConfig{
			Addrs:          clientAddrs,
			Client:         namesvc.ClientConfig{Timeout: 300 * time.Millisecond},
			OpTimeout:      500 * time.Millisecond,
			ConnectTimeout: 10 * time.Second,
			BackoffBase:    10 * time.Millisecond,
			BackoffMax:     100 * time.Millisecond,
			Seed:           seed,
			OnGrantLost:    func(client uint64, name int) { table.cleared(name, label) },
		}
	}

	// The holder session acquires before the fault and holds across it:
	// its grants are the "every acknowledged grant survives failover"
	// half of the invariant. A keepalive drives ops so the session
	// notices dead connections and self-heals without caller traffic.
	holder, err := namesvc.DialSession(sessionCfg("holder", 1))
	if err != nil {
		t.Fatalf("dialing holder session: %v", err)
	}
	defer func() { holder.Close(); holder.Wait() }()
	heldNames := make([]int, 0, holderGrants)
	for i := 0; i < holderGrants; i++ {
		g, err := holder.AcquireSync(uint64(101 + i))
		if err != nil {
			t.Fatalf("holder acquire %d: %v", i, err)
		}
		table.granted(g.Name, "holder")
		heldNames = append(heldNames, g.Name)
	}

	// Churn workers acquire and release continuously through every fault.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	churn := make([]*namesvc.Session, 2)
	for w := range churn {
		label := fmt.Sprintf("churn-%d", w)
		s, err := namesvc.DialSession(sessionCfg(label, uint64(10+w)))
		if err != nil {
			t.Fatalf("dialing %s: %v", label, err)
		}
		churn[w] = s
		wg.Add(1)
		go func(w int, s *namesvc.Session, label string) {
			defer wg.Done()
			client := uint64((w + 1) * 100000)
			for {
				select {
				case <-stop:
					return
				default:
				}
				client++
				g, err := s.AcquireSync(client)
				if err != nil {
					continue // timeouts and redirects during faults
				}
				table.granted(g.Name, label)
				table.cleared(g.Name, label) // free-at-release-submit
				s.ReleaseSync(g.Name)
			}
		}(w, s, label)
	}
	wg.Add(1)
	go func() { // holder keepalive
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(50 * time.Millisecond):
				holder.StatsSync()
			}
		}
	}()

	// Compile the fault schedule and drive it. The applier maps the
	// scenario's "leader" target onto node 0 — repl links and client
	// link together, so the leader is cut off from peers and clients at
	// the same instant, the way a real network cut behaves.
	events, err := faultnet.Compile("partition-leader", chaosDuration, chaosSeed)
	if err != nil {
		t.Fatalf("compiling schedule: %v", err)
	}
	partitioned := make(chan struct{})
	driver := faultnet.NewDriver(events, faultnet.ApplierFunc(func(e faultnet.Event) {
		switch e.Action {
		case faultnet.ActPartition:
			fc.partitionNode(0)
			clientLinks[0].Partition(e.OneWay)
			close(partitioned)
		case faultnet.ActHeal:
			fc.healNode(0)
			clientLinks[0].Heal()
		}
	}), c.logf)
	driverDone := make(chan struct{})
	go func() { driver.Run(stop); close(driverDone) }()

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
	// resync happen under traffic, then the churn drains.
	time.Sleep(500 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Invariant: zero duplicate grants across every session and fault.
	if dups := table.duplicates(); len(dups) != 0 {
		t.Fatalf("duplicate grants under chaos: %v", dups)
	}

	// Invariant: every pre-fault acknowledged grant was reclaimed onto
	// the new leader — none lost, all still held, all releasable.
	waitHolder := time.Now().Add(10 * time.Second)
	for {
		if _, err := holder.StatsSync(); err == nil {
			break
		}
		if time.Now().After(waitHolder) {
			t.Fatal("holder session never re-reached a leader")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if hc := holder.Counters(); hc.Lost != 0 {
		t.Fatalf("holder counters %+v: pre-fault grants lost in failover", hc)
	}
	if held := holder.Held(); len(held) != holderGrants {
		t.Fatalf("holder holds %d grants, want %d: %v", len(held), holderGrants, held)
	}
	for _, name := range heldNames {
		table.cleared(name, "holder")
		if err := holder.ReleaseSync(name); err != nil {
			t.Fatalf("releasing reclaimed grant %d on the new leader: %v", name, err)
		}
	}
	// Churn stragglers: releases that timed out mid-fault are still held
	// by their sessions; they must all be releasable too.
	for w, s := range churn {
		for name := range s.Held() {
			table.cleared(name, fmt.Sprintf("churn-%d", w))
			if err := s.ReleaseSync(name); err != nil {
				t.Fatalf("churn-%d releasing straggler %d: %v", w, name, err)
			}
		}
		s.Close()
		s.Wait()
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
