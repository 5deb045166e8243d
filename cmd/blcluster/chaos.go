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
	"sync"
	"time"

	"ballsintoleaves/internal/faultnet"
	"ballsintoleaves/internal/namesvc"
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

// nodeFaults is every link touching one node: its client link plus both
// directions of each peer route. It is the unit a schedule target
// resolves to — partitioning a node means partitioning all of these at
// the same instant, the way a real network cut behaves.
type nodeFaults struct {
	client *faultnet.Link
	out    []*faultnet.Link // out[j]: this node's route toward peer j (it dials)
	in     []*faultnet.Link // in[j]: peer j's route toward this node (j dials)
}

func (nf *nodeFaults) each(f func(*faultnet.Link)) {
	for _, l := range nf.out {
		if l != nil {
			f(l)
		}
	}
	for _, l := range nf.in {
		if l != nil {
			f(l)
		}
	}
	f(nf.client)
}

// partition cuts the node off. Full partitions also reset established
// flows so stream failures surface at once. One-way partitions deafen
// the node: traffic toward it vanishes while its own transmissions still
// deliver — the return direction drops on routes it dials, the forward
// direction on routes dialed toward it — and connections stay standing,
// so only timeouts, never connection errors, expose the fault. A
// deafened node is the election-stability worst case: it reaches every
// peer with (pre-)vote solicitations while hearing no leader itself.
func (nf *nodeFaults) partition(oneWay bool) {
	if !oneWay {
		nf.each(func(l *faultnet.Link) { l.Partition(false); l.ResetConns() })
		return
	}
	for _, l := range nf.out {
		if l != nil {
			l.SetDrop(faultnet.BtoA, true)
		}
	}
	for _, l := range nf.in {
		if l != nil {
			l.SetDrop(faultnet.AtoB, true)
		}
	}
	nf.client.SetDrop(faultnet.AtoB, true)
}

func (nf *nodeFaults) heal()  { nf.each(func(l *faultnet.Link) { l.Heal() }) }
func (nf *nodeFaults) reset() { nf.each(func(l *faultnet.Link) { l.ResetConns() }) }

func (nf *nodeFaults) latency(d time.Duration) {
	nf.each(func(l *faultnet.Link) {
		l.SetLatency(faultnet.AtoB, d)
		l.SetLatency(faultnet.BtoA, d)
	})
}

func (nf *nodeFaults) rate(bps int) {
	nf.each(func(l *faultnet.Link) {
		l.SetRate(faultnet.AtoB, bps)
		l.SetRate(faultnet.BtoA, bps)
	})
}

// chaosTable is the cross-session duplicate detector. The discipline is
// free-at-release-submit: an entry is held from grant acknowledgement
// until its release is submitted or the session reports the grant
// revoked (OnGrantLost). Revocation is asynchronous — the server frees a
// dead connection's names the moment teardown's releases commit, while
// the owning session only learns of the loss when its reclaim fails after
// a reconnect — so a legitimate re-grant can race the owner's OnGrantLost
// and look like a duplicate in the moment. duplicates() therefore
// reconciles at settlement: a suspect is a true duplicate only if the
// previous owner never reported that name revoked, meaning two sessions
// held acknowledged grants for one name at once.
type chaosTable struct {
	mu    sync.Mutex
	owner map[int]string // name -> holder label
	dups  []chaosDup
	lost  map[chaosDup]bool // (name, label) pairs the server revoked
}

type chaosDup struct {
	name int
	who  string // duplicates: the earlier owner; lost: the revoked owner
}

func newChaosTable() *chaosTable {
	return &chaosTable{owner: make(map[int]string), lost: make(map[chaosDup]bool)}
}

func (ct *chaosTable) granted(name int, who string) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if prev, ok := ct.owner[name]; ok {
		ct.dups = append(ct.dups, chaosDup{name, prev})
	}
	ct.owner[name] = who
}

// cleared records a release submission: the name may be re-granted from
// this moment on.
func (ct *chaosTable) cleared(name int, who string) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.owner[name] == who {
		delete(ct.owner, name)
	}
}

// revoked records an OnGrantLost callback: the server took the name back
// from this session, so a grant that raced this notification was
// legitimate.
func (ct *chaosTable) revoked(name int, who string) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.lost[chaosDup{name, who}] = true
	if ct.owner[name] == who {
		delete(ct.owner, name)
	}
}

// duplicates reconciles the suspects against the revocations. Call it
// only after every session has settled — all reclaim passes done, all
// revocations delivered.
func (ct *chaosTable) duplicates() []string {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	var out []string
	for _, d := range ct.dups {
		if ct.lost[d] {
			continue // the earlier owner's grant was revoked: a re-grant, not a duplicate
		}
		out = append(out, fmt.Sprintf("name %d re-granted while still held by %s", d.name, d.who))
	}
	return out
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
	var proxies []*faultnet.Proxy
	defer func() {
		for _, p := range proxies {
			p.Close()
		}
	}()
	clientLinks := make([]*faultnet.Link, cfg.n)
	for i := 0; i < cfg.n; i++ {
		clientLinks[i] = faultnet.NewLink(fmt.Sprintf("client-%d", i))
		p, err := faultnet.NewProxy(cfg.chaosClientAddr(i), cfg.clientAddr(i), clientLinks[i])
		if err != nil {
			return fmt.Errorf("chaos: client proxy %d: %w", i, err)
		}
		proxies = append(proxies, p)
	}
	peerLinks := make([][]*faultnet.Link, cfg.n)
	for i := range peerLinks {
		peerLinks[i] = make([]*faultnet.Link, cfg.n)
		for j := 0; j < cfg.n; j++ {
			if j == i {
				continue
			}
			link := faultnet.NewLink(fmt.Sprintf("repl-%d->%d", i, j))
			p, err := faultnet.NewProxy(cfg.chaosPeerAddr(i, j), cfg.replAddr(j), link)
			if err != nil {
				return fmt.Errorf("chaos: peer proxy %d->%d: %w", i, j, err)
			}
			peerLinks[i][j] = link
			proxies = append(proxies, p)
		}
	}

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

	faultsFor := func(x int) *nodeFaults {
		nf := &nodeFaults{client: clientLinks[x], out: peerLinks[x], in: make([]*faultnet.Link, cfg.n)}
		for j := 0; j < cfg.n; j++ {
			if j != x {
				nf.in[j] = peerLinks[j][x]
			}
		}
		return nf
	}

	table := newChaosTable()
	sessionAddrs := make([]string, cfg.n)
	for i := range sessionAddrs {
		sessionAddrs[i] = cfg.chaosClientAddr(i)
	}
	sessionCfg := func(label string, seed uint64) namesvc.SessionConfig {
		return namesvc.SessionConfig{
			Addrs:          sessionAddrs,
			Client:         namesvc.ClientConfig{Timeout: 2 * time.Second},
			OpTimeout:      2 * time.Second,
			ConnectTimeout: 30 * time.Second,
			BackoffBase:    25 * time.Millisecond,
			BackoffMax:     500 * time.Millisecond,
			Seed:           seed,
			OnGrantLost:    func(client uint64, name int) { table.revoked(name, label) },
		}
	}

	// The holder session acquires before the first fault and holds across
	// every fault: its grants are the "every acknowledged grant is
	// accounted for" half of the invariant. A keepalive drives ops so the
	// session notices dead connections and self-heals without caller
	// traffic.
	holder, err := namesvc.DialSession(sessionCfg("holder", 1))
	if err != nil {
		return fmt.Errorf("chaos: dialing holder session: %w", err)
	}
	defer func() { holder.Close(); holder.Wait() }()
	for i := 0; i < chaosHolderGrants; i++ {
		g, err := holder.AcquireSync(uint64(101 + i))
		if err != nil {
			return fmt.Errorf("chaos: holder acquire %d: %w", i, err)
		}
		table.granted(g.Name, "holder")
	}
	// Baseline after the pre-fault acquires: redirects the holder takes
	// from here on happened under the schedule. On a healthy leader the
	// holder stays put, so any redirect means the leader bounced a read —
	// a revoked read lease — or leadership itself moved.
	holderBase := holder.Counters()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	churn := make([]*namesvc.Session, chaosChurnWorkers)
	for w := range churn {
		label := fmt.Sprintf("churn-%d", w)
		s, err := namesvc.DialSession(sessionCfg(label, uint64(10+w)))
		if err != nil {
			return fmt.Errorf("chaos: dialing %s: %w", label, err)
		}
		churn[w] = s
		defer func() { s.Close(); s.Wait() }()
		wg.Add(1)
		go func(s *namesvc.Session, label string, client uint64) {
			defer wg.Done()
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
		}(s, label, uint64((w+1)*100000))
	}
	wg.Add(1)
	go func() { // holder keepalive
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Millisecond):
				holder.StatsSync()
			}
		}
	}()

	driver := faultnet.NewDriver(events, faultnet.ApplierFunc(func(e faultnet.Event) {
		x := leader
		if e.Target == "follower" {
			x = follower
		}
		nf := faultsFor(x)
		switch e.Action {
		case faultnet.ActPartition:
			nf.partition(e.OneWay)
		case faultnet.ActHeal:
			nf.heal()
		case faultnet.ActReset:
			nf.reset()
		case faultnet.ActLatency:
			nf.latency(e.Latency)
		case faultnet.ActRate:
			nf.rate(e.Rate)
		}
	}), func(format string, args ...any) {
		fmt.Printf("blcluster: "+format+"\n", args...)
	})
	driver.Run(nil)

	// Load rides past the final heal so fencing and catch-up happen under
	// traffic, then the churn drains.
	time.Sleep(time.Second)
	close(stop)
	wg.Wait()

	// Invariant: zero duplicate grants.
	dups := table.duplicates()
	fmt.Printf("blcluster: chaos invariant: duplicates: %d\n", len(dups))
	if len(dups) > 0 {
		for _, d := range dups {
			fmt.Fprintf(os.Stderr, "blcluster: chaos duplicate: %s\n", d)
		}
		return fmt.Errorf("chaos: %d duplicate grants", len(dups))
	}

	// Invariant: every pre-fault acknowledged grant is accounted for —
	// still held (reclaimed across every reconnect) and releasable, or
	// revoked by the server with the loss reported through OnGrantLost.
	// Nothing vanishes silently. Scenarios that never let a live leader
	// commit a dead connection's teardown releases (partition-leader cuts
	// the leader's peers and clients in the same instant) keep the revoked
	// count at zero.
	settleBy := time.Now().Add(20 * time.Second)
	for {
		if _, err := holder.StatsSync(); err == nil {
			break
		}
		if time.Now().After(settleBy) {
			return fmt.Errorf("chaos: holder session never re-reached a leader after the schedule")
		}
		time.Sleep(50 * time.Millisecond)
	}
	held := holder.Held()
	revoked := holder.Counters().Lost
	if uint64(len(held))+revoked != chaosHolderGrants {
		return fmt.Errorf("chaos: %d pre-fault grants unaccounted for: %d held + %d revoked, want %d",
			chaosHolderGrants-len(held)-int(revoked), len(held), revoked, chaosHolderGrants)
	}
	for name := range held {
		table.cleared(name, "holder")
		if err := holder.ReleaseSync(name); err != nil {
			return fmt.Errorf("chaos: releasing reclaimed grant %d: %w", name, err)
		}
	}
	fmt.Printf("blcluster: chaos invariant: %d pre-fault grants accounted for: %d reclaimed and released, %d revoked\n",
		chaosHolderGrants, len(held), revoked)

	// Churn stragglers — grants whose release timed out mid-fault — must
	// still be releasable through their own sessions (or revoked, in which
	// case OnGrantLost has already settled the accounting).
	var sess namesvc.SessionCounters
	for w, s := range churn {
		for name := range s.Held() {
			if err := s.ReleaseSync(name); err != nil {
				if _, still := s.Held()[name]; still {
					return fmt.Errorf("chaos: churn-%d releasing straggler %d: %w", w, name, err)
				}
			}
		}
		c := s.Counters()
		sess.Reconnects += c.Reconnects
		sess.Redirects += c.Redirects
		sess.Reclaimed += c.Reclaimed
		sess.Retries += c.Retries
		sess.Timeouts += c.Timeouts
	}
	hc := holder.Counters()
	sess.Reconnects += hc.Reconnects
	sess.Redirects += hc.Redirects
	sess.Reclaimed += hc.Reclaimed
	sess.Retries += hc.Retries
	sess.Timeouts += hc.Timeouts
	fmt.Printf("blcluster: chaos sessions: %d reconnects, %d redirects, %d reclaimed, %d retries, %d op timeouts\n",
		sess.Reconnects, sess.Redirects, sess.Reclaimed, sess.Retries, sess.Timeouts)

	// Invariant: election disruption. Terms are read through the control
	// plane, outside the chaos; the highest term anywhere in the cluster
	// minus the pre-fault term counts the elections the schedule forced.
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
	fmt.Printf("blcluster: chaos invariant: disruptive elections: %d (term %d -> %d)\n",
		maxTerm-termBefore, termBefore, maxTerm)
	postLeader, ok := findLeader(cfg, alive)
	if !ok {
		return fmt.Errorf("chaos: no leader after the schedule")
	}
	leaseRevocations := hc.Redirects - holderBase.Redirects
	fmt.Printf("blcluster: chaos invariant: lease revocations: %d\n", leaseRevocations)
	fmt.Printf("blcluster: chaos invariant: compaction floor: %d\n", floors[postLeader])
	if leaderHealthy {
		switch {
		case maxTerm != termBefore:
			return fmt.Errorf("chaos: %d disruptive elections while the leader stayed healthy", maxTerm-termBefore)
		case postLeader != leader:
			return fmt.Errorf("chaos: leadership moved from node %d to node %d while the leader stayed healthy",
				leader, postLeader)
		case revoked != 0:
			return fmt.Errorf("chaos: %d holder grants revoked while the leader stayed healthy", revoked)
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
