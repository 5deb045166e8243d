// Chaos mode: run the cluster with every network link — client-facing
// and peer-to-peer — routed through in-process faultnet proxies, drive a
// compiled seed-deterministic fault schedule against it while
// self-healing Session clients churn grants, and check the chaos
// invariants at the end:
//
//   - zero duplicate grants across every session and fault,
//   - every pre-fault acknowledged grant accounted for: reclaimed and
//     releasable on the post-fault leader, or revoked with the loss
//     reported to its session — never silently gone,
//   - election stability: for scenarios that never unseat a healthy
//     leader (flapping-follower, asymmetric-split) the cluster term must
//     not move, leadership must not change hands, no holder grant may be
//     revoked, and the leader's read lease must never lapse,
//   - with -retain-records, the leader's compaction floor advanced,
//   - byte-identical per-shard digests across all replicas after heal.
//
// Each invariant prints a greppable "blcluster: chaos invariant:" line;
// the run ends with "chaos: invariants hold" only if all of them do.
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"ballsintoleaves/internal/faultnet"
	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/namesvc/grantcheck"
)

const (
	// chaosClientProxyOffset places node i's client-facing fault proxy on
	// base-port+200+i; sessions dial the proxy, never the daemon.
	chaosClientProxyOffset = 200
	// chaosPeerProxyOffset places the proxy carrying node i's replication
	// traffic toward peer j on base-port+300+i*n+j. Each ordered pair gets
	// its own proxy so a node can be cut off in one direction only.
	chaosPeerProxyOffset = 300

	// chaosHolderGrants is how many names the holder session acquires
	// before the first fault and must still hold after the last heal.
	chaosHolderGrants = 16
	// chaosChurnWorkers is how many sessions acquire/release continuously
	// through every fault.
	chaosChurnWorkers = 2
)

func (cfg *config) chaosClientAddr(i int) string {
	return fmt.Sprintf("%s:%d", cfg.host, cfg.basePort+chaosClientProxyOffset+i)
}

func (cfg *config) chaosPeerAddr(i, j int) string {
	return fmt.Sprintf("%s:%d", cfg.host, cfg.basePort+chaosPeerProxyOffset+i*cfg.n+j)
}

// chaosPeerList is node i's -peers view: itself at its real replication
// address (it binds it), every peer behind i's outbound proxy toward that
// peer, and every client address the proxied one — redirect hints must
// name addresses sessions can actually dial.
func (cfg *config) chaosPeerList(i int) string {
	members := make([]string, cfg.n)
	for j := range members {
		repl := cfg.replAddr(j)
		if j != i {
			repl = cfg.chaosPeerAddr(i, j)
		}
		members[j] = repl + "=" + cfg.chaosClientAddr(j)
	}
	return strings.Join(members, ",")
}

// chaosRun executes the -chaos scenario end to end: proxies, daemons,
// session load, the schedule, the invariant checks, the drain.
func chaosRun(cfg *config) error {
	events, err := faultnet.Compile(cfg.chaos, cfg.chaosDur, cfg.chaosSeed)
	if err != nil {
		return err
	}
	if cfg.chaosPrint {
		for _, e := range events {
			fmt.Println(e)
		}
		return nil
	}
	fmt.Printf("blcluster: chaos schedule %q: seed %d, %d events over %v\n",
		cfg.chaos, cfg.chaosSeed, len(events), cfg.chaosDur)
	for _, e := range events {
		fmt.Printf("blcluster: chaos plan: %s\n", e)
	}

	// Every link gets its proxy before any daemon starts; proxies dial
	// their targets lazily, so order does not matter, but sessions must
	// only ever see proxied addresses.
	mesh, err := faultnet.NewMesh(cfg.n,
		func(i, j int) (string, string) { return cfg.chaosPeerAddr(i, j), cfg.replAddr(j) },
		func(i int) (string, string) { return cfg.chaosClientAddr(i), cfg.clientAddr(i) })
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	defer mesh.Close()

	members := make([]*member, cfg.n)
	for i := 0; i < cfg.n; i++ {
		m, err := spawn(cfg, i, cfg.chaosPeerList(i))
		if err != nil {
			for _, prev := range members {
				if prev != nil {
					prev.cmd.Process.Kill()
					<-prev.done
				}
			}
			return fmt.Errorf("chaos: spawning node %d: %w", i, err)
		}
		members[i] = m
	}
	alive := func(i int) bool { return members[i].alive() }
	defer func() {
		for _, m := range members {
			if m.alive() {
				m.cmd.Process.Kill()
				<-m.done
			}
		}
	}()

	// The control plane — leader discovery, digest polling — dials the
	// daemons directly, outside the chaos: the harness must keep seeing
	// the cluster that the faulted clients cannot.
	leader, ok := awaitLeader(cfg, alive, 30*time.Second)
	if !ok {
		return fmt.Errorf("chaos: no leader elected within 30s")
	}
	fmt.Printf("blcluster: node %d is leader (%s)\n", leader, cfg.clientAddr(leader))
	follower := (leader + 1) % cfg.n

	// The pre-fault term anchors the election-disruption invariant: a
	// scenario that never unseats a healthy leader (follower flaps, a
	// deafened follower) must end the run with zero term movement anywhere
	// in the cluster. Leader-targeted scenarios report the movement without
	// gating on it.
	preStats, err := nodeStats(cfg, leader)
	if err != nil {
		return fmt.Errorf("chaos: leader stats: %w", err)
	}
	termBefore := preStats.ReplTerm
	leaderHealthy := cfg.chaos == "flapping-follower" || cfg.chaos == "asymmetric-split"

	sessionAddrs := make([]string, cfg.n)
	for i := range sessionAddrs {
		sessionAddrs[i] = cfg.chaosClientAddr(i)
	}
	// The holder session acquires before the first fault and holds across
	// every fault: its grants are the "every acknowledged grant is
	// accounted for" half of the invariant. Churn sessions acquire and
	// release continuously through every fault.
	load, err := grantcheck.Start(grantcheck.Config{
		Session: namesvc.SessionConfig{
			Addrs:          sessionAddrs,
			Client:         namesvc.ClientConfig{Timeout: 2 * time.Second},
			OpTimeout:      2 * time.Second,
			ConnectTimeout: 30 * time.Second,
			BackoffBase:    25 * time.Millisecond,
			BackoffMax:     500 * time.Millisecond,
		},
		Hold:  chaosHolderGrants,
		Churn: chaosChurnWorkers,
	})
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	defer load.Close()
	// Baseline after the pre-fault acquires: redirects the holder takes
	// from here on happened under the schedule. On a healthy leader the
	// holder stays put, so any redirect means the leader bounced a read —
	// a revoked read lease — or leadership itself moved.
	holderBase := load.Holder().Counters()

	driver := faultnet.NewDriver(events, func(e faultnet.Event) {
		x := leader
		if e.Target == "follower" {
			x = follower
		}
		mesh.Apply(e, x)
	}, func(format string, args ...any) {
		fmt.Printf("blcluster: "+format+"\n", args...)
	})
	driver.Run(nil)

	// Load rides past the final heal so fencing and catch-up happen under
	// traffic, then the churn drains and every session settles.
	time.Sleep(time.Second)
	res, err := load.Settle(20 * time.Second)
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}

	// Invariant: zero duplicate grants.
	fmt.Printf("blcluster: chaos invariant: duplicates: %d\n", len(res.Duplicates))
	if len(res.Duplicates) > 0 {
		for _, d := range res.Duplicates {
			fmt.Fprintf(os.Stderr, "blcluster: chaos duplicate: %s\n", d)
		}
		return fmt.Errorf("chaos: %d duplicate grants", len(res.Duplicates))
	}

	// Each node's term, role and last election reason, read through the
	// control plane, outside the chaos — printed before the holder
	// invariant, so a failed one shows who led and why the term last moved.
	// For the election-disruption invariant below, the highest term
	// anywhere in the cluster minus the pre-fault term counts the elections
	// the schedule forced.
	maxTerm := termBefore
	floors := make([]uint64, cfg.n)
	for i := 0; i < cfg.n; i++ {
		if !alive(i) {
			continue
		}
		st, err := nodeStats(cfg, i)
		if err != nil {
			return fmt.Errorf("chaos: node %d stats: %w", i, err)
		}
		fmt.Printf("blcluster: chaos node %d: term %d, %s, last election %q, compaction floor %d\n",
			i, st.ReplTerm, st.ReplRole, st.ElectionReason, st.CompactFloor)
		if st.ReplTerm > maxTerm {
			maxTerm = st.ReplTerm
		}
		floors[i] = st.CompactFloor
	}

	// Invariant: every pre-fault acknowledged grant is accounted for —
	// still held (reclaimed across every reconnect) and releasable, or
	// revoked by the server with the loss reported through OnGrantLost.
	// Nothing vanishes silently. Scenarios that never let a live leader
	// commit a dead connection's teardown releases (partition-leader cuts
	// the leader's peers and clients in the same instant) keep the revoked
	// count at zero.
	if uint64(res.Held)+res.Revoked != chaosHolderGrants {
		return fmt.Errorf("chaos: %d pre-fault grants unaccounted for: %d held + %d revoked, want %d",
			chaosHolderGrants-res.Held-int(res.Revoked), res.Held, res.Revoked, chaosHolderGrants)
	}
	fmt.Printf("blcluster: chaos invariant: %d pre-fault grants accounted for: %d reclaimed and released, %d revoked\n",
		chaosHolderGrants, res.Held, res.Revoked)
	sess := res.Counters
	fmt.Printf("blcluster: chaos sessions: %d reconnects, %d redirects, %d reclaimed, %d retries, %d op timeouts\n",
		sess.Reconnects, sess.Redirects, sess.Reclaimed, sess.Retries, sess.Timeouts)

	// Invariant: election disruption, from the terms read above.
	fmt.Printf("blcluster: chaos invariant: disruptive elections: %d (term %d -> %d)\n",
		maxTerm-termBefore, termBefore, maxTerm)
	postLeader, ok := findLeader(cfg, alive)
	if !ok {
		return fmt.Errorf("chaos: no leader after the schedule")
	}
	leaseRevocations := load.Holder().Counters().Redirects - holderBase.Redirects
	fmt.Printf("blcluster: chaos invariant: lease revocations: %d\n", leaseRevocations)
	fmt.Printf("blcluster: chaos invariant: compaction floor: %d\n", floors[postLeader])
	if leaderHealthy {
		switch {
		case maxTerm != termBefore:
			return fmt.Errorf("chaos: %d disruptive elections while the leader stayed healthy", maxTerm-termBefore)
		case postLeader != leader:
			return fmt.Errorf("chaos: leadership moved from node %d to node %d while the leader stayed healthy",
				leader, postLeader)
		case res.Revoked != 0:
			return fmt.Errorf("chaos: %d holder grants revoked while the leader stayed healthy", res.Revoked)
		case leaseRevocations != 0:
			return fmt.Errorf("chaos: the healthy leader bounced %d holder reads — its read lease lapsed", leaseRevocations)
		}
	}
	if cfg.retainRecords > 0 {
		if floors[postLeader] == 0 {
			return fmt.Errorf("chaos: compaction floor never advanced under -retain-records %d", cfg.retainRecords)
		}
		fmt.Printf("blcluster: chaos invariant: compaction floor advanced: %d\n", floors[postLeader])
	}

	// Invariant: every replica — the faulted node included — converges to
	// identical per-shard digests after heal.
	if err := awaitConvergence(cfg, alive, 30*time.Second); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}

	fmt.Printf("blcluster: chaos: invariants hold (scenario %s, seed %d)\n", cfg.chaos, cfg.chaosSeed)
	if err := drainMembers(members); err != nil {
		return err
	}
	fmt.Println("blcluster: cluster shut down cleanly")
	return nil
}
