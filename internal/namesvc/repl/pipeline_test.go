package repl

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"ballsintoleaves/internal/namesvc"
)

// clientOnShard returns the n-th client ID (from 1) that routes to shard.
func clientOnShard(svc *namesvc.Service, shard, n int) uint64 {
	for c := uint64(1); ; c++ {
		if svc.Shard(c) == shard {
			if n--; n == 0 {
				return c
			}
		}
	}
}

// TestWaitCommittedTargetsRecordsAtEntry pins the commit wait's target: the
// records the shard had produced when WaitCommitted was called, not
// whatever it has produced by the time the wait wakes up. The shard's epoch
// loop keeps sealing records while its deliverer waits, so a wait that
// re-read the shard's latest index on every wakeup would chase a moving
// target. Here a producer appends to the shard throughout, and the commit
// index is walked forward one record *behind* the shard's newest — a wait
// on the newest can never be satisfied, a wait on the entry-time target is
// as soon as the walk passes it.
func TestWaitCommittedTargetsRecordsAtEntry(t *testing.T) {
	// An election timeout longer than the test: check-quorum never judges
	// the lease, so the leader keeps leading with both followers gone and
	// only this test moves the commit index.
	c := startCluster(t, 3, func(cfg *Config) { cfg.ElectionTimeout = time.Minute })
	n := c.nodes[0]
	if !n.Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}
	c.nodes[1].Close()
	c.nodes[2].Close()
	svc := c.svcs[0]

	// One record (an epoch, then its release, then …) per step on shard 0.
	produce := func(i int) error {
		client := clientOnShard(svc, 0, i)
		if _, err := svc.Acquire(client, nil); err != nil {
			return err
		}
		grants, err := svc.CloseEpoch(0)
		if err != nil {
			return err
		}
		for _, g := range grants {
			if err := svc.Release(g.Client, g.Name); err != nil {
				return err
			}
		}
		return nil
	}
	if err := produce(1); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 2; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := produce(i); err != nil {
				t.Errorf("producer: %v", err)
				return
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	waited := make(chan error, 1)
	go func() { waited <- n.WaitCommitted(0) }()
	deadline := time.After(10 * time.Second)
	for {
		n.mu.Lock()
		l := n.ldr
		if l == nil {
			n.mu.Unlock()
			t.Fatal("node 0 lost leadership")
		}
		// A follower acknowledges everything but the shard's newest record.
		if last := l.lastIdxByShard[0]; last > 0 && last-1 > l.match[1] {
			l.match[1] = last - 1
			l.advanceCommitLocked(n)
		}
		n.mu.Unlock()
		select {
		case err := <-waited:
			if err != nil {
				t.Fatalf("WaitCommitted: %v", err)
			}
			return
		case <-deadline:
			t.Fatal("WaitCommitted starved: it is chasing the records produced during the wait")
		case <-time.After(time.Millisecond):
		}
	}
}

// enteredGate is a Node as the Server's gate, announcing each commit wait
// as it begins.
type enteredGate struct {
	*Node
	entered chan int
}

func (g enteredGate) WaitCommitted(shard int) error {
	select {
	case g.entered <- shard:
	default:
	}
	return g.Node.WaitCommitted(shard)
}

// TestDeposedLeaderDiscardsBothDeliveryBuffers extends the fencing story to
// the delivery pipeline: a leader cut off from its quorum closes one epoch
// whose grants sit in the batch in flight (its WaitCommitted blocked) and a
// second whose grants are staged behind it. When check-quorum deposes the
// leader, both batches must be dropped with not one grant written to the
// client — so the new leader granting those same names to other clients is
// never a visible duplicate — and the old leader's divergent epochs must be
// overwritten on heal.
func TestDeposedLeaderDiscardsBothDeliveryBuffers(t *testing.T) {
	fc := startFaultCluster(t, 3)
	c := fc.cluster
	gate := enteredGate{Node: c.nodes[0], entered: make(chan int, 16)}
	srv, err := namesvc.NewServer(namesvc.ServerConfig{
		Service: c.svcs[0], Gate: gate, IOTimeout: 2 * time.Second, Logf: c.logf,
	})
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

	cl, err := namesvc.Dial(ln.Addr().String(), namesvc.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	svc := c.svcs[0]
	// A committed baseline: the pipeline works while the quorum is there.
	held, err := cl.AcquireSync(clientOnShard(svc, 0, 1))
	if err != nil {
		t.Fatalf("baseline acquire: %v", err)
	}
	c.waitConverged(0)
	for len(gate.entered) > 0 {
		<-gate.entered
	}

	fc.mesh.Partition(0, false)

	// Doomed epoch one: closed, staged, swapped into flight, its commit
	// wait blocked for want of a quorum.
	type outcome struct {
		g   namesvc.Grant
		err error
	}
	outcomes := make(chan outcome, 2)
	acquire := func(client uint64) {
		t.Helper()
		if err := cl.Acquire(client, func(g namesvc.Grant, err error) { outcomes <- outcome{g, err} }); err != nil {
			t.Fatal(err)
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	epoch := svc.ShardEpoch(0)
	first, second := clientOnShard(svc, 0, 2), clientOnShard(svc, 0, 3)
	acquire(first)
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the doomed epoch never reached its commit wait")
	}
	// Doomed epoch two: the shard keeps closing epochs during that wait.
	acquire(second)
	deadline := time.Now().Add(10 * time.Second)
	for svc.ShardEpoch(0) < epoch+2 {
		if time.Now().After(deadline) {
			t.Fatal("the shard stopped closing epochs while a commit was pending")
		}
		time.Sleep(time.Millisecond)
	}
	doomed := map[int]bool{}
	for _, e := range svc.ShardJournal(0) {
		if e.Op == namesvc.OpAssign && (e.Client == first || e.Client == second) {
			doomed[e.Name] = true
		}
	}
	if len(doomed) != 2 {
		t.Fatalf("the minority leader assigned %d doomed names, want 2", len(doomed))
	}

	// Check-quorum deposes the leader: both batches are discarded and the
	// client connection is severed without ever carrying a doomed grant.
	for i := 0; i < 2; i++ {
		select {
		case o := <-outcomes:
			if o.err == nil {
				t.Fatalf("uncommitted grant %+v reached the client", o.g)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("the deposed leader never failed the doomed acquires")
		}
	}
	if c.nodes[0].IsLeader() {
		t.Fatal("node 0 still leads")
	}
	if err := c.nodes[0].WaitCommitted(0); !errors.Is(err, errDeposed) {
		t.Fatalf("WaitCommitted on the deposed leader: %v", err)
	}

	// The majority moves on and grants the doomed names to someone else.
	won := false
	for i := 0; i < 100 && !won; i++ {
		if won = c.nodes[1].Campaign(); !won {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !won {
		t.Fatal("majority follower failed to take leadership")
	}
	// (Four grants, so the new leader's event count on the shard differs
	// from the old one's — catch-up decides by position vector alone.)
	for i := 10; i < 14; i++ {
		if _, err := c.svcs[1].Acquire(clientOnShard(c.svcs[1], 0, i), nil); err != nil {
			t.Fatal(err)
		}
	}
	grants, err := c.svcs[1].CloseEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, c.nodes[1], 0)
	regranted := 0
	for _, g := range grants {
		if g.Name == held.Name {
			t.Fatalf("the committed grant of %d was granted again", held.Name)
		}
		if doomed[g.Name] {
			regranted++
		}
	}
	if regranted != 2 {
		t.Fatalf("new leader re-granted %d of the 2 doomed names (grants %+v)", regranted, grants)
	}

	// On heal the old leader's doomed epochs are overwritten.
	fc.mesh.Heal(0)
	c.waitConverged(1)
	c.assertReplicasMatch()
}
