package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ballsintoleaves/internal/namesvc"
)

func TestParseFlagsValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		args []string
	}{
		{"missing data-dir", nil},
		{"zero n", []string{"-n", "0", "-data-dir", "d"}},
		{"negative leader-wait", []string{"-leader", "-leader-wait", "-1s"}},
		{"unknown chaos scenario", []string{"-data-dir", "d", "-chaos", "nope"}},
		{"zero chaos duration", []string{"-data-dir", "d", "-chaos", "partition-leader", "-chaos-duration", "0s"}},
		{"chaos with kill script", []string{"-data-dir", "d", "-chaos", "partition-leader", "-kill-leader-after", "1s"}},
		{"chaos on too-small cluster", []string{"-data-dir", "d", "-chaos", "partition-leader", "-n", "2"}},
		{"chaos-print without chaos", []string{"-data-dir", "d", "-chaos-print"}},
		{"chaos proxy ports overflow", []string{"-data-dir", "d", "-chaos", "partition-leader", "-base-port", "65400"}},
	}
	for _, tc := range cases {
		if _, err := parseFlags(tc.args); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := parseFlags([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h err = %v", err)
	}
	cfg, err := parseFlags([]string{"-data-dir", "d", "-chaos", "flapping-follower",
		"-chaos-duration", "9s", "-chaos-seed", "11"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.chaos != "flapping-follower" || cfg.chaosDur != 9*time.Second || cfg.chaosSeed != 11 {
		t.Fatalf("cfg = %+v", cfg)
	}
	// -chaos-print needs no data directory: nothing is spawned.
	if _, err := parseFlags([]string{"-chaos", "partition-leader", "-chaos-print"}); err != nil {
		t.Fatalf("-chaos-print rejected: %v", err)
	}
	// Chaos mode view wiring: each node sees itself at its real
	// replication address and every peer through its own outbound proxy,
	// with all client addresses proxied.
	cfg, err = parseFlags([]string{"-data-dir", "d", "-chaos", "partition-leader", "-base-port", "4000"})
	if err != nil {
		t.Fatal(err)
	}
	view := cfg.chaosPeerList(1)
	want := "127.0.0.1:4303=127.0.0.1:4200," + // node 0 via proxy 1->0
		"127.0.0.1:4101=127.0.0.1:4201," + // itself, real repl addr
		"127.0.0.1:4305=127.0.0.1:4202" // node 2 via proxy 1->2
	if view != want {
		t.Fatalf("chaosPeerList(1) = %q, want %q", view, want)
	}
}

// buildBinary compiles the package at pkgDir into dir and returns the
// binary's path.
func buildBinary(t *testing.T, dir, name, pkgDir string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	bin := filepath.Join(dir, name)
	out, err := exec.Command(goBin, "build", "-o", bin, pkgDir).CombinedOutput()
	if err != nil {
		t.Fatalf("go build %s: %v\n%s", pkgDir, err, out)
	}
	return bin
}

// freePorts grabs n distinct free TCP ports by binding and releasing
// them. The window between release and reuse is a benign race on
// loopback in CI.
func freePorts(t *testing.T, n int) []int {
	t.Helper()
	lns := make([]net.Listener, n)
	ports := make([]int, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	for _, ln := range lns {
		ln.Close()
	}
	return ports
}

// node is one spawned blnamed cluster member under test control.
type node struct {
	cmd    *exec.Cmd
	addr   string // client address
	stderr *strings.Builder
	done   chan struct{} // closed when the process exits
	err    error         // Wait result, valid once done is closed
}

func (n *node) wait(t *testing.T, timeout time.Duration) error {
	t.Helper()
	select {
	case <-n.done:
		return n.err
	case <-time.After(timeout):
		t.Fatalf("node %s did not exit within %v", n.addr, timeout)
		return nil
	}
}

// startNode launches one blnamed -replicate member.
func startNode(t *testing.T, bin, dataDir, peers string, id int, clientAddr string) *node {
	t.Helper()
	cmd := exec.Command(bin,
		"-listen", clientAddr,
		"-shards", "2", "-shard-cap", "128", "-seed", "3", "-quiet",
		"-data-dir", filepath.Join(dataDir, fmt.Sprintf("node-%d", id)),
		"-fsync", "group", "-snapshot-every", "16",
		"-replicate", "-node-id", fmt.Sprint(id), "-peers", peers,
		"-election-timeout", "200ms")
	var errBuf strings.Builder
	cmd.Stderr = &errBuf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	n := &node{cmd: cmd, addr: clientAddr, stderr: &errBuf, done: make(chan struct{})}
	go func() { n.err = cmd.Wait(); close(n.done) }()
	t.Cleanup(func() {
		select {
		case <-n.done:
		default:
			cmd.Process.Kill()
			<-n.done
		}
	})
	return n
}

// leaderOf polls the given client addresses until one reports itself
// leader in its welcome.
func leaderOf(t *testing.T, addrs []string, timeout time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		for i, addr := range addrs {
			if addr == "" {
				continue
			}
			c, err := namesvc.Dial(addr, namesvc.ClientConfig{Timeout: time.Second})
			if err != nil {
				continue
			}
			role := c.Role()
			c.Close()
			if role == namesvc.RoleLeader {
				return i
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no leader among %v within %v", addrs, timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestKillLeaderFailover is the acceptance gate from the issue: kill -9
// the leader mid-epoch while live traffic runs, and require that a
// follower is elected, every acknowledged (quorum-committed) grant
// survives onto the new leader, nothing is ever double-granted, and the
// surviving replicas end byte-identical.
func TestKillLeaderFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes")
	}
	t.Parallel()
	scratch := t.TempDir()
	bin := buildBinary(t, scratch, "blnamed", "../blnamed")

	ports := freePorts(t, 6)
	clientAddrs := make([]string, 3)
	peers := make([]string, 3)
	for i := 0; i < 3; i++ {
		clientAddrs[i] = fmt.Sprintf("127.0.0.1:%d", ports[i])
		peers[i] = fmt.Sprintf("127.0.0.1:%d=%s", ports[3+i], clientAddrs[i])
	}
	peerList := strings.Join(peers, ",")
	nodes := make([]*node, 3)
	for i := 0; i < 3; i++ {
		nodes[i] = startNode(t, bin, scratch, peerList, i, clientAddrs[i])
	}

	leader := leaderOf(t, clientAddrs, 30*time.Second)

	// Live load: two closed-loop workers acquiring names on separate
	// connections. Every grant they see acknowledged was quorum-committed
	// before delivery — that is the commit rule under test.
	var mu sync.Mutex
	granted := make(map[int]uint64) // name -> client; no releases, so every name is granted at most once
	var workers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		workers.Add(1)
		go func(base uint64) {
			defer workers.Done()
			c, err := namesvc.Dial(clientAddrs[leader], namesvc.ClientConfig{Timeout: 5 * time.Second})
			if err != nil {
				t.Errorf("worker dial: %v", err)
				return
			}
			defer c.Close()
			for client := base; ; client++ {
				g, err := c.AcquireSync(client)
				if err != nil {
					return // the kill severed the connection; acknowledged grants stand
				}
				mu.Lock()
				prev, dup := granted[g.Name]
				granted[g.Name] = client
				mu.Unlock()
				if dup {
					t.Errorf("name %d granted to client %d while held by %d", g.Name, client, prev)
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(uint64(1 + w*1_000_000))
	}

	// Let the cluster commit a body of grants, then kill the leader with
	// no warning — mid-epoch, with acquires still in flight.
	deadline := time.Now().Add(15 * time.Second)
	for {
		mu.Lock()
		n := len(granted)
		mu.Unlock()
		if n >= 40 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d grants before kill deadline", n)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := nodes[leader].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	nodes[leader].wait(t, 10*time.Second)
	close(stop)
	workers.Wait()
	survivors := make([]string, 3)
	copy(survivors, clientAddrs)
	survivors[leader] = ""

	// Failover: a survivor must take over.
	next := leaderOf(t, survivors, 30*time.Second)
	if next == leader {
		t.Fatalf("dead node %d reported as leader", next)
	}

	// Every acknowledged grant survives: its name is still held by its
	// client on the new leader, provable via the reclaim handshake (the
	// granting connection died with the old leader).
	c, err := namesvc.Dial(clientAddrs[next], namesvc.ClientConfig{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mu.Lock()
	held := make(map[int]uint64, len(granted))
	for name, client := range granted {
		held[name] = client
	}
	mu.Unlock()
	for name, client := range held {
		if err := c.ReclaimSync(client, name); err != nil {
			t.Fatalf("grant of name %d to client %d was acknowledged but lost: %v", name, client, err)
		}
	}

	// The new leader must not double-grant a surviving name.
	for client := uint64(5_000_000); client < 5_000_020; client++ {
		g, err := c.AcquireSync(client)
		if err != nil {
			t.Fatalf("acquire on new leader: %v", err)
		}
		if owner, dup := held[g.Name]; dup {
			t.Fatalf("name %d granted to client %d while held by %d across the failover", g.Name, client, owner)
		}
	}

	// Surviving replicas converge to identical per-shard digests.
	other := 3 - leader - next
	convergeBy := time.Now().Add(10 * time.Second)
	for {
		a, errA := statsOf(clientAddrs[next])
		b, errB := statsOf(clientAddrs[other])
		if errA == nil && errB == nil && digestsEqual(a.Digests, b.Digests) {
			break
		}
		if time.Now().After(convergeBy) {
			t.Fatalf("survivor digests diverge: leader %v vs follower %v (%v, %v)",
				a.Digests, b.Digests, errA, errB)
		}
		time.Sleep(50 * time.Millisecond)
	}
	c.Close()

	// Clean drain: both survivors exit 0 and report their replication
	// role and committed index (the SIGTERM drain line under test).
	for _, i := range []int{next, other} {
		if err := nodes[i].cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := nodes[i].wait(t, 30*time.Second); err != nil {
			t.Fatalf("node %d drain: %v\nstderr:\n%s", i, err, nodes[i].stderr.String())
		}
		if got := nodes[i].stderr.String(); !strings.Contains(got, "replication: drained as") {
			t.Fatalf("node %d drain log missing replication status:\n%s", i, got)
		}
	}
}

// TestChaosPrintDeterminism: -chaos-print is the CI determinism gate —
// two compilations of the same (scenario, duration, seed) must print the
// same schedule, byte for byte, and the schedule must end healed.
func TestChaosPrintDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary")
	}
	t.Parallel()
	scratch := t.TempDir()
	blcluster := buildBinary(t, scratch, "blcluster", ".")
	args := []string{"-chaos", "flapping-follower", "-chaos-duration", "30s",
		"-chaos-seed", "9", "-chaos-print"}
	first, err := exec.Command(blcluster, args...).Output()
	if err != nil {
		t.Fatalf("first -chaos-print run: %v", err)
	}
	second, err := exec.Command(blcluster, args...).Output()
	if err != nil {
		t.Fatalf("second -chaos-print run: %v", err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("same seed printed different schedules:\n%s\n---\n%s", first, second)
	}
	lines := strings.Split(strings.TrimSpace(string(first)), "\n")
	if len(lines) < 6 {
		t.Fatalf("flapping-follower compiled only %d events:\n%s", len(lines), first)
	}
	if !strings.Contains(string(first), "partition follower") {
		t.Fatalf("schedule missing its partitions:\n%s", first)
	}
	if last := lines[len(lines)-1]; !strings.Contains(last, "heal follower") {
		t.Fatalf("schedule does not end healed: %q", last)
	}
}

// TestChaosEndToEnd runs the blcluster binary through a full chaos
// scenario: a 3-node cluster behind faultnet proxies, the compiled
// partition-leader schedule cutting the leader off mid-load while Session
// clients churn, and the end-of-run invariant checker. Exit 0 with every
// invariant line logged.
func TestChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real processes")
	}
	t.Parallel()
	scratch := t.TempDir()
	blnamed := buildBinary(t, scratch, "blnamed", "../blnamed")
	blcluster := buildBinary(t, scratch, "blcluster", ".")

	// Chaos mode for n=3 needs the daemon ports plus both proxy ranges
	// free: clients at +0..2, repl at +100..102, client proxies at
	// +200..202, peer proxies at +300+i*3+j.
	offsets := []int{0, 1, 2, 100, 101, 102, 200, 201, 202, 301, 302, 303, 305, 306, 307}
	var base int
	for attempt := 0; ; attempt++ {
		base = freePorts(t, 1)[0]
		if base+chaosPeerProxyOffset+9 > 65536 {
			continue
		}
		ok := true
		for _, off := range offsets {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", base+off))
			if err != nil {
				ok = false
				break
			}
			ln.Close()
		}
		if ok {
			break
		}
		if attempt > 20 {
			t.Fatal("no free port range for chaos mode")
		}
	}

	cmd := exec.Command(blcluster,
		"-blnamed", blnamed, "-n", "3", "-base-port", fmt.Sprint(base),
		"-data-dir", filepath.Join(scratch, "chaos"),
		"-shards", "2", "-shard-cap", "128", "-seed", "7",
		"-election-timeout", "200ms",
		"-chaos", "partition-leader", "-chaos-duration", "6s", "-chaos-seed", "5")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var exitErr error
	done := make(chan struct{})
	go func() { exitErr = cmd.Wait(); close(done) }()
	t.Cleanup(func() {
		select {
		case <-done:
		default:
			cmd.Process.Kill()
			<-done
		}
	})
	select {
	case <-done:
		if exitErr != nil {
			t.Fatalf("blcluster -chaos exited %v%s\noutput:\n%s", exitErr, chaosNodeStates(out.String()), out.String())
		}
	case <-time.After(120 * time.Second):
		t.Fatalf("blcluster -chaos did not finish\noutput so far:\n%s", out.String())
	}
	for _, milestone := range []string{
		"chaos plan:", "is leader",
		"chaos: t=+1.5s partition leader", "chaos: t=+3.6s heal leader",
		"chaos invariant: duplicates: 0",
		"chaos invariant: 16 pre-fault grants accounted for: 16 reclaimed and released, 0 revoked",
		"digests converged", "chaos: invariants hold",
		"cluster shut down cleanly",
	} {
		if !strings.Contains(out.String(), milestone) {
			t.Fatalf("chaos output missing %q%s\noutput:\n%s", milestone, chaosNodeStates(out.String()), out.String())
		}
	}
}

// chaosNodeStates gathers, from blcluster's chaos output, which node led
// first, the holder grants' fate and each node's term, role and last
// election reason after the schedule — enough to tell a leader that
// stepped down before the fault from a fault the cluster mishandled.
func chaosNodeStates(out string) string {
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, " is leader (") || strings.Contains(line, "chaos node ") ||
			strings.Contains(line, "pre-fault grants") {
			b.WriteString("\n  " + line)
		}
	}
	if b.Len() == 0 {
		return "\nnode states: none printed"
	}
	return "\nnode states:" + b.String()
}

func statsOf(addr string) (namesvc.Stats, error) {
	c, err := namesvc.Dial(addr, namesvc.ClientConfig{Timeout: 2 * time.Second})
	if err != nil {
		return namesvc.Stats{}, err
	}
	defer c.Close()
	return c.StatsSync()
}

func digestsEqual(a, b []uint64) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLauncherEndToEnd runs the blcluster binary itself through its
// scripted fault-injection path: elect, kill the leader, fail over,
// converge, drain — exit 0 with each milestone logged. The -leader query
// mode is probed while the cluster is up.
func TestLauncherEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real processes")
	}
	t.Parallel()
	scratch := t.TempDir()
	blnamed := buildBinary(t, scratch, "blnamed", "../blnamed")
	blcluster := buildBinary(t, scratch, "blcluster", ".")

	// The launcher derives peer ports as base+100+i, so probe until a
	// base with both ranges free is found.
	var base int
	for attempt := 0; ; attempt++ {
		base = freePorts(t, 1)[0]
		if base+replPortOffset+3 > 65536 {
			continue
		}
		ok := true
		for _, p := range []int{base, base + 1, base + 2, base + replPortOffset, base + replPortOffset + 1, base + replPortOffset + 2} {
			ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
			if err != nil {
				ok = false
				break
			}
			ln.Close()
		}
		if ok {
			break
		}
		if attempt > 20 {
			t.Fatal("no free port range for the launcher")
		}
	}

	cmd := exec.Command(blcluster,
		"-blnamed", blnamed, "-n", "3", "-base-port", fmt.Sprint(base),
		"-data-dir", filepath.Join(scratch, "cluster"),
		"-shards", "2", "-shard-cap", "64", "-seed", "7",
		"-election-timeout", "200ms",
		"-kill-leader-after", "2s", "-run-for", "8s")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var exitErr error
	done := make(chan struct{})
	go func() { exitErr = cmd.Wait(); close(done) }()
	t.Cleanup(func() {
		select {
		case <-done:
		default:
			cmd.Process.Kill()
			<-done
		}
	})

	// While it runs, the query mode must name one of the three client
	// addresses as leader.
	queryBy := time.Now().Add(20 * time.Second)
	for {
		q := exec.Command(blcluster, "-leader", "-n", "3", "-base-port", fmt.Sprint(base))
		qOut, err := q.Output()
		if err == nil {
			addr := strings.TrimSpace(string(qOut))
			want := map[string]bool{}
			for i := 0; i < 3; i++ {
				want[fmt.Sprintf("127.0.0.1:%d", base+i)] = true
			}
			if !want[addr] {
				t.Fatalf("-leader printed %q, not a member client address", addr)
			}
			break
		}
		if time.Now().After(queryBy) {
			t.Fatal("-leader query never succeeded")
		}
		time.Sleep(200 * time.Millisecond)
	}

	select {
	case <-done:
		if exitErr != nil {
			t.Fatalf("blcluster exited %v\noutput:\n%s", exitErr, out.String())
		}
	case <-time.After(90 * time.Second):
		t.Fatalf("blcluster did not finish\noutput so far:\n%s", out.String())
	}
	for _, milestone := range []string{
		"is leader", "killing leader node", "failover complete",
		"digests converged", "cluster shut down cleanly",
	} {
		if !strings.Contains(out.String(), milestone) {
			t.Fatalf("launcher output missing %q:\n%s", milestone, out.String())
		}
	}
}
