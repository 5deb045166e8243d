// Command blcluster launches and supervises a localhost blnamed
// replication cluster: n daemons (cmd/blnamed -replicate), each with its
// own data directory, client port, and replication port, wired into one
// peer list. It is the scripted-fault-injection harness for the
// replication layer (internal/namesvc/repl): it waits for the first
// election, optionally kills the elected leader mid-life with SIGKILL
// (-kill-leader-after), verifies a survivor takes over, and checks that
// every live replica converges to identical per-shard digests before the
// final drain.
//
// Run a three-node cluster, kill the leader six seconds in, and shut the
// survivors down cleanly after twenty:
//
//	blcluster -blnamed ./blnamed -n 3 -base-port 4750 -data-dir /tmp/cluster \
//	    -kill-leader-after 6s -run-for 20s
//
// Node i serves clients on base-port+i and peers on base-port+100+i.
// While the cluster runs, a second blcluster invocation with -leader
// prints the current leader's client address on stdout (for pointing
// blload at the write endpoint) and every member's replication view —
// term, role, last-election reason, compaction floor — on stderr. The
// query retries with backoff for up to -leader-wait
// while an election is in flight, so scripts can call it right after
// cluster start without racing the first election:
//
//	blload -connect "$(blcluster -leader -n 3 -base-port 4750)" -duration 5s
//
// -chaos <scenario> switches to the chaos lab: every link — client and
// peer — is routed through an in-process faultnet proxy, a
// seed-deterministic fault schedule (internal/faultnet) is compiled and
// driven against the elected leader or a follower, self-healing
// namesvc.Session clients churn grants throughout, and an end-of-run
// checker enforces the chaos invariants: zero duplicate grants, every
// pre-fault acknowledged grant reclaimed on the post-fault leader, and
// byte-identical replica digests after heal. -chaos-print prints the
// compiled schedule without spawning anything, so CI can diff two
// compilations of the same seed:
//
//	blcluster -blnamed ./blnamed -n 3 -data-dir /tmp/chaos \
//	    -chaos partition-leader -chaos-duration 20s -chaos-seed 7
//
// Exit status is 0 only if every scripted step succeeded: the election,
// the failover (when a kill was scheduled), digest convergence across the
// survivors, and a clean SIGTERM drain of every remaining daemon.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ballsintoleaves/internal/faultnet"
	"ballsintoleaves/internal/namesvc"
)

// errFlagsReported marks parse failures the FlagSet already printed.
var errFlagsReported = errors.New("flag parsing failed")

// replPortOffset separates a node's replication port from its client
// port: node i peers on basePort+replPortOffset+i.
const replPortOffset = 100

// config is the parsed and validated command line.
type config struct {
	n               int
	basePort        int
	host            string
	dataDir         string
	blnamed         string
	shards          int
	shardCap        int
	seed            uint64
	fsync           string
	snapshotEvery   int
	electionTimeout time.Duration
	retainRecords   int
	killLeaderAfter time.Duration
	runFor          time.Duration
	leaderQuery     bool
	leaderWait      time.Duration
	chaos           string
	chaosDur        time.Duration
	chaosSeed       uint64
	chaosPrint      bool
}

// parseFlags parses args into a validated config.
func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("blcluster", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	cfg := &config{}
	fs.IntVar(&cfg.n, "n", 3, "cluster size (quorum is n/2+1)")
	fs.IntVar(&cfg.basePort, "base-port", 4750,
		"node i serves clients on base-port+i and peers on base-port+100+i")
	fs.StringVar(&cfg.host, "host", "127.0.0.1", "address every listener binds")
	fs.StringVar(&cfg.dataDir, "data-dir", "",
		"root directory; node i persists under <data-dir>/node-<i> (required unless -leader)")
	fs.StringVar(&cfg.blnamed, "blnamed", "blnamed", "path to the blnamed binary")
	fs.IntVar(&cfg.shards, "shards", 2, "namespace shards per daemon")
	fs.IntVar(&cfg.shardCap, "shard-cap", 1024, "names per shard")
	fs.Uint64Var(&cfg.seed, "seed", 0, "seed driving every epoch's renaming randomness")
	fs.StringVar(&cfg.fsync, "fsync", "group", "WAL flush policy passed to every daemon: epoch or group")
	fs.IntVar(&cfg.snapshotEvery, "snapshot-every", 4096,
		"checkpoint a shard after this many WAL records")
	fs.DurationVar(&cfg.electionTimeout, "election-timeout", 300*time.Millisecond,
		"follower patience before campaigning")
	fs.IntVar(&cfg.retainRecords, "retain-records", 0,
		"cap every leader's replication-record backlog (0 = daemon default)")
	fs.DurationVar(&cfg.killLeaderAfter, "kill-leader-after", 0,
		"SIGKILL the elected leader this long after the first election (0 = never)")
	fs.DurationVar(&cfg.runFor, "run-for", 0,
		"shut the cluster down cleanly after this long (0 = run until SIGINT/SIGTERM)")
	fs.BoolVar(&cfg.leaderQuery, "leader", false,
		"query mode: print the current leader's client address and exit (no daemons spawned)")
	fs.DurationVar(&cfg.leaderWait, "leader-wait", 10*time.Second,
		"-leader: keep retrying with backoff this long while an election is in flight (0 = single attempt)")
	fs.StringVar(&cfg.chaos, "chaos", "",
		"chaos mode: drive this named fault scenario against the cluster ("+strings.Join(faultnet.Scenarios(), ", ")+")")
	fs.DurationVar(&cfg.chaosDur, "chaos-duration", 20*time.Second,
		"length of the compiled chaos schedule")
	fs.Uint64Var(&cfg.chaosSeed, "chaos-seed", 1,
		"seed the chaos schedule is compiled from (same seed, same fault sequence)")
	fs.BoolVar(&cfg.chaosPrint, "chaos-print", false,
		"print the compiled chaos schedule and exit (no daemons spawned)")
	if err := fs.Parse(args); err != nil {
		return nil, errors.Join(errFlagsReported, err)
	}
	switch {
	case cfg.n < 1:
		return nil, fmt.Errorf("blcluster: -n must be >= 1, got %d", cfg.n)
	case cfg.basePort < 1 || cfg.basePort+replPortOffset+cfg.n > 65536:
		return nil, fmt.Errorf("blcluster: -base-port %d leaves no room for %d client and peer ports",
			cfg.basePort, cfg.n)
	case cfg.n > replPortOffset:
		return nil, fmt.Errorf("blcluster: -n must be <= %d (client and peer port ranges would collide)", replPortOffset)
	case !cfg.leaderQuery && !cfg.chaosPrint && cfg.dataDir == "":
		return nil, fmt.Errorf("blcluster: -data-dir is required")
	case cfg.shards < 1:
		return nil, fmt.Errorf("blcluster: -shards must be >= 1, got %d", cfg.shards)
	case cfg.shardCap < 1:
		return nil, fmt.Errorf("blcluster: -shard-cap must be >= 1, got %d", cfg.shardCap)
	case cfg.snapshotEvery < 1:
		return nil, fmt.Errorf("blcluster: -snapshot-every must be >= 1, got %d", cfg.snapshotEvery)
	case cfg.electionTimeout <= 0:
		return nil, fmt.Errorf("blcluster: -election-timeout must be positive, got %v", cfg.electionTimeout)
	case cfg.killLeaderAfter < 0 || cfg.runFor < 0:
		return nil, fmt.Errorf("blcluster: -kill-leader-after and -run-for must be >= 0")
	case cfg.retainRecords < 0:
		return nil, fmt.Errorf("blcluster: -retain-records must be >= 0, got %d", cfg.retainRecords)
	case cfg.leaderWait < 0:
		return nil, fmt.Errorf("blcluster: -leader-wait must be >= 0, got %v", cfg.leaderWait)
	case cfg.chaosPrint && cfg.chaos == "":
		return nil, fmt.Errorf("blcluster: -chaos-print requires -chaos")
	}
	if cfg.chaos != "" {
		known := false
		for _, s := range faultnet.Scenarios() {
			if s == cfg.chaos {
				known = true
				break
			}
		}
		switch {
		case !known:
			return nil, fmt.Errorf("blcluster: unknown -chaos scenario %q (have %s)",
				cfg.chaos, strings.Join(faultnet.Scenarios(), ", "))
		case cfg.chaosDur <= 0:
			return nil, fmt.Errorf("blcluster: -chaos-duration must be positive, got %v", cfg.chaosDur)
		case cfg.killLeaderAfter > 0:
			return nil, fmt.Errorf("blcluster: -chaos and -kill-leader-after are mutually exclusive fault scripts")
		case cfg.n < 3:
			return nil, fmt.Errorf("blcluster: -chaos needs -n >= 3 (a majority must survive the partitioned node)")
		case cfg.basePort+chaosPeerProxyOffset+cfg.n*cfg.n > 65536:
			return nil, fmt.Errorf("blcluster: -base-port %d leaves no room for %d nodes' chaos proxy ports",
				cfg.basePort, cfg.n)
		}
	}
	return cfg, nil
}

func (cfg *config) clientAddr(i int) string {
	return fmt.Sprintf("%s:%d", cfg.host, cfg.basePort+i)
}

func (cfg *config) replAddr(i int) string {
	return fmt.Sprintf("%s:%d", cfg.host, cfg.basePort+replPortOffset+i)
}

// peerList is the -peers value shared verbatim by every member.
func (cfg *config) peerList() string {
	members := make([]string, cfg.n)
	for i := range members {
		members[i] = cfg.replAddr(i) + "=" + cfg.clientAddr(i)
	}
	return strings.Join(members, ",")
}

// findLeader dials every live member and reports which one's welcome
// claims leadership.
func findLeader(cfg *config, alive func(int) bool) (int, bool) {
	for i := 0; i < cfg.n; i++ {
		if alive != nil && !alive(i) {
			continue
		}
		c, err := namesvc.Dial(cfg.clientAddr(i), namesvc.ClientConfig{Timeout: 2 * time.Second})
		if err != nil {
			continue
		}
		role := c.Role()
		c.Close()
		if role == namesvc.RoleLeader {
			return i, true
		}
	}
	return -1, false
}

// queryLeader serves the -leader query: it retries findLeader with
// exponential backoff for up to -leader-wait, because a query issued
// right after cluster start (or right after a leader death) races the
// election window — the first answer is often a follower's, and failing
// on it makes every calling script carry its own retry loop.
func queryLeader(cfg *config) (int, bool) {
	deadline := time.Now().Add(cfg.leaderWait)
	backoff := 50 * time.Millisecond
	for {
		if i, ok := findLeader(cfg, nil); ok {
			return i, true
		}
		if cfg.leaderWait == 0 || !time.Now().Add(backoff).Before(deadline) {
			return -1, false
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// awaitLeader polls findLeader until a leader appears or the deadline
// passes.
func awaitLeader(cfg *config, alive func(int) bool, timeout time.Duration) (int, bool) {
	deadline := time.Now().Add(timeout)
	for {
		if i, ok := findLeader(cfg, alive); ok {
			return i, true
		}
		if time.Now().After(deadline) {
			return -1, false
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// nodeStats fetches one member's full stats reply.
func nodeStats(cfg *config, i int) (namesvc.Stats, error) {
	c, err := namesvc.Dial(cfg.clientAddr(i), namesvc.ClientConfig{Timeout: 2 * time.Second})
	if err != nil {
		return namesvc.Stats{}, err
	}
	defer c.Close()
	return c.StatsSync()
}

// printReplDetail writes each reachable member's replication view —
// term, role, why its last term or role change happened, and its
// compaction floor — to stderr. Stdout stays the leader address alone:
// that is the contract scripts substitute into blload's -connect.
func printReplDetail(cfg *config) {
	for i := 0; i < cfg.n; i++ {
		st, err := nodeStats(cfg, i)
		if err != nil {
			fmt.Fprintf(os.Stderr, "blcluster: node %d: unreachable: %v\n", i, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "blcluster: node %d: term %d, %s, last election %q, compaction floor %d\n",
			i, st.ReplTerm, st.ReplRole, st.ElectionReason, st.CompactFloor)
	}
}

// digests fetches one member's per-shard digest vector.
func digests(cfg *config, i int) ([]uint64, error) {
	st, err := nodeStats(cfg, i)
	if err != nil {
		return nil, err
	}
	return st.Digests, nil
}

// awaitConvergence polls every live member until all report identical
// per-shard digests.
func awaitConvergence(cfg *config, alive func(int) bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var want []uint64
		ok, live := true, 0
		for i := 0; i < cfg.n && ok; i++ {
			if !alive(i) {
				continue
			}
			live++
			got, err := digests(cfg, i)
			if err != nil {
				ok = false
				break
			}
			if want == nil {
				want = got
				continue
			}
			if len(got) != len(want) {
				ok = false
				break
			}
			for s := range want {
				if got[s] != want[s] {
					ok = false
					break
				}
			}
		}
		if ok && live > 0 {
			fmt.Printf("blcluster: digests converged across %d replica(s): %s\n", live, digestString(want))
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not converge within %v", timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func digestString(ds []uint64) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%016x", d)
	}
	return strings.Join(parts, " ")
}

// member is one supervised blnamed process.
type member struct {
	cmd    *exec.Cmd
	done   chan struct{} // closed when the process exits
	err    error         // Wait result, valid after done
	killed bool          // SIGKILLed by the fault script
}

// spawn starts node i with the given -peers view and forwards its output
// line by line, prefixed. Every member of a plain cluster shares the
// canonical peer list; chaos mode hands each node its own view routing
// peers through that node's outbound fault proxies.
func spawn(cfg *config, i int, peers string) (*member, error) {
	dir := filepath.Join(cfg.dataDir, fmt.Sprintf("node-%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	args := []string{
		"-listen", cfg.clientAddr(i),
		"-shards", fmt.Sprint(cfg.shards),
		"-shard-cap", fmt.Sprint(cfg.shardCap),
		"-seed", fmt.Sprint(cfg.seed),
		"-quiet",
		"-data-dir", dir,
		"-fsync", cfg.fsync,
		"-snapshot-every", fmt.Sprint(cfg.snapshotEvery),
		"-replicate",
		"-node-id", fmt.Sprint(i),
		"-peers", peers,
		"-election-timeout", cfg.electionTimeout.String(),
	}
	if cfg.retainRecords > 0 {
		args = append(args, "-retain-records", fmt.Sprint(cfg.retainRecords))
	}
	cmd := exec.Command(cfg.blnamed, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout // interleave; both streams get the prefix
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	m := &member{cmd: cmd, done: make(chan struct{})}
	go func() {
		buf := make([]byte, 0, 4096)
		rd := make([]byte, 4096)
		for {
			n, err := stdout.Read(rd)
			buf = append(buf, rd[:n]...)
			for {
				nl := bytes.IndexByte(buf, '\n')
				if nl < 0 {
					break
				}
				fmt.Fprintf(os.Stderr, "blcluster: node %d: %s\n", i, buf[:nl])
				buf = buf[nl+1:]
			}
			if err != nil {
				if len(buf) > 0 {
					fmt.Fprintf(os.Stderr, "blcluster: node %d: %s\n", i, buf)
				}
				break
			}
		}
		m.err = cmd.Wait()
		close(m.done)
	}()
	return m, nil
}

func (m *member) alive() bool {
	select {
	case <-m.done:
		return false
	default:
		return true
	}
}

func run(cfg *config) error {
	members := make([]*member, cfg.n)
	for i := 0; i < cfg.n; i++ {
		m, err := spawn(cfg, i, cfg.peerList())
		if err != nil {
			for _, prev := range members {
				if prev != nil {
					prev.cmd.Process.Kill()
					<-prev.done
				}
			}
			return fmt.Errorf("spawning node %d: %w", i, err)
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

	leader, ok := awaitLeader(cfg, alive, 30*time.Second)
	if !ok {
		return fmt.Errorf("no leader elected within 30s")
	}
	fmt.Printf("blcluster: node %d is leader (%s)\n", leader, cfg.clientAddr(leader))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var killTimer, stopTimer <-chan time.Time
	if cfg.killLeaderAfter > 0 {
		killTimer = time.After(cfg.killLeaderAfter)
	}
	if cfg.runFor > 0 {
		stopTimer = time.After(cfg.runFor)
	}

	for done := false; !done; {
		select {
		case <-killTimer:
			killTimer = nil
			victim, ok := findLeader(cfg, alive)
			if !ok {
				return fmt.Errorf("kill scheduled but no leader found")
			}
			fmt.Printf("blcluster: killing leader node %d (SIGKILL, no drain)\n", victim)
			members[victim].killed = true
			members[victim].cmd.Process.Kill()
			<-members[victim].done
			next, ok := awaitLeader(cfg, alive, 30*time.Second)
			if !ok {
				return fmt.Errorf("no failover: survivors elected no leader within 30s")
			}
			fmt.Printf("blcluster: failover complete: node %d leads (%s)\n", next, cfg.clientAddr(next))
		case <-stopTimer:
			done = true
		case <-sig:
			done = true
		}
	}

	// Every survivor must hold identical state before the drain.
	if err := awaitConvergence(cfg, alive, 15*time.Second); err != nil {
		return err
	}

	if err := drainMembers(members); err != nil {
		return err
	}
	fmt.Println("blcluster: cluster shut down cleanly")
	return nil
}

// drainMembers SIGTERMs every live member and waits out their clean
// exits; members the fault script killed are skipped. The first problem —
// a premature exit, a drain timeout, a nonzero drain status — is the
// returned error.
func drainMembers(members []*member) error {
	var firstErr error
	for i, m := range members {
		if !m.alive() {
			if !m.killed && firstErr == nil {
				firstErr = fmt.Errorf("node %d exited prematurely: %v", i, m.err)
			}
			continue
		}
		m.cmd.Process.Signal(syscall.SIGTERM)
	}
	for i, m := range members {
		if m.killed {
			continue
		}
		select {
		case <-m.done:
		case <-time.After(30 * time.Second):
			return fmt.Errorf("node %d did not drain within 30s of SIGTERM", i)
		}
		if m.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("node %d drain: %v", i, m.err)
		}
	}
	return firstErr
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		if !errors.Is(err, errFlagsReported) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
	if cfg.leaderQuery {
		i, ok := queryLeader(cfg)
		if !ok {
			fmt.Fprintf(os.Stderr, "blcluster: no leader found within %v\n", cfg.leaderWait)
			os.Exit(1)
		}
		printReplDetail(cfg)
		fmt.Println(cfg.clientAddr(i))
		return
	}
	if cfg.chaos != "" {
		if err := chaosRun(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "blcluster: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "blcluster: %v\n", err)
		os.Exit(1)
	}
}
