package namesvc

import (
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ballsintoleaves/internal/namesvc/durable"
	"ballsintoleaves/internal/wire"
)

// TestEpochZeroAllocs guards the service's allocation-free steady state, in
// the spirit of core's TestCohortPhaseZeroAllocs: once the per-shard
// scratch, the request pool, and the shard's resizable cohort are warm, a
// full churn cycle — queue a batch of acquires, close the epoch (which runs
// a whole renaming instance), release every grant — must not touch the heap.
func TestEpochZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	const batch = 128
	svc, err := New(Config{ShardCap: 1 << 12, Seed: 9, MaxBatch: batch})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]uint64, batch)
	for i := range clients {
		clients[i] = uint64(i + 1)
	}
	cycle := func() {
		for _, cl := range clients {
			if _, err := svc.Acquire(cl, nil); err != nil {
				t.Fatal(err)
			}
		}
		grants, err := svc.CloseEpoch(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(grants) != batch {
			t.Fatalf("granted %d of %d", len(grants), batch)
		}
		for _, g := range grants {
			if err := svc.Release(g.Client, g.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the pools: request structs, pending/index capacity, epoch
	// scratch, and the shard's resizable cohort, grown to this batch size.
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(5, cycle); allocs != 0 {
		t.Errorf("steady-state churn cycle allocated %v objects, want 0", allocs)
	}
}

// TestClientSteadyStateZeroAllocs guards the client's allocation-free fast
// path: once the pending table, the frame scratch, and the read buffer are
// warm, a full acquire→grant→release→ack round trip through Acquire /
// Release / Flush and the read loop performs zero heap allocations on the
// client. The peer is a minimal in-process responder that answers from
// reused buffers, so the measurement (which is process-wide) isolates the
// client.
func TestClientSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var w wire.Writer
		var out, rbuf []byte
		reply := func() bool {
			out = wire.AppendFrame(out[:0], w.Bytes())
			_, err := conn.Write(out)
			return err == nil
		}
		body, err := wire.ReadFrame(conn, rbuf, svcMaxFrame)
		if err != nil || decodeSvcHello(body) != nil {
			return
		}
		rbuf = body
		w.Reset()
		appendWelcome(&w, 1, 16, RoleStandalone, "")
		if !reply() {
			return
		}
		for {
			body, err := wire.ReadFrame(conn, rbuf, svcMaxFrame)
			if err != nil {
				return
			}
			rbuf = body
			switch body[0] {
			case opAcquire:
				tag, _, err := decodeAcquire(body)
				if err != nil {
					return
				}
				w.Reset()
				appendGrant(&w, tag, Grant{Name: 3, Epoch: 1})
			case opRelease:
				tag, _, err := decodeRelease(body)
				if err != nil {
					return
				}
				w.Reset()
				appendReleased(&w, tag)
			default:
				return
			}
			if !reply() {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String(), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	granted := make(chan int, 1)
	released := make(chan error, 1)
	onGrant := func(g Grant, err error) {
		if err != nil {
			granted <- -1
			return
		}
		granted <- g.Name
	}
	onRelease := func(err error) { released <- err }
	roundTrip := func() {
		if err := c.Acquire(7, onGrant); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if name := <-granted; name != 3 {
			t.Fatalf("granted %d, want 3", name)
		}
		if err := c.Release(3, onRelease); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := <-released; err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	roundTrip()
	if allocs := testing.AllocsPerRun(50, roundTrip); allocs != 0 {
		t.Errorf("client round trip allocated %v objects, want 0", allocs)
	}
}

// TestEpochZeroAllocsVariedBatch is the wandering case a closed-loop server
// lives in: after one warm-up at the largest batch size, churn cycles whose
// batch size takes a seeded walk over 96 distinct sizes — none but the
// largest seen before — must not touch the heap, since the shard's one
// cohort is re-armed at each size and every tree shape below the warm-up's
// already exists.
func TestEpochZeroAllocsVariedBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	const largest = 96
	svc, err := New(Config{ShardCap: 1 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cycle := func(batch int) {
		for i := 0; i < batch; i++ {
			if _, err := svc.Acquire(uint64(i+1), nil); err != nil {
				t.Fatal(err)
			}
		}
		grants, err := svc.CloseEpoch(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(grants) != batch {
			t.Fatalf("granted %d of %d", len(grants), batch)
		}
		for _, g := range grants {
			if err := svc.Release(g.Client, g.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle(largest)
	sizes := rand.New(rand.NewSource(3)).Perm(largest) // each size in 1..largest once, in seeded order
	i := 0
	if allocs := testing.AllocsPerRun(len(sizes)-1, func() {
		cycle(sizes[i] + 1)
		i++
	}); allocs != 0 {
		t.Errorf("wandering-batch churn allocated %v objects per cycle, want 0", allocs)
	}
}

// slowGate is GroupGate whose every commit wait also takes a modelled
// flush time, so that while one shard's wait runs the other shard stages
// its next batch: it counts its waits and those that began while another
// shard's was in flight.
type slowGate struct {
	CommitGate
	inflight, waits, paired atomic.Int64
}

func (g *slowGate) WaitCommitted(shard int) error {
	g.waits.Add(1)
	if g.inflight.Add(1) > 1 {
		g.paired.Add(1)
	}
	defer g.inflight.Add(-1)
	time.Sleep(100 * time.Microsecond)
	return g.CommitGate.WaitCommitted(shard)
}

// TestGatedServerModestAllocs guards the durable server's delivery path: a
// two-shard group-commit server on MemSinks, two connections pipelining
// acquires over both shards and releasing each grant, averages fewer than
// one heap allocation per acquire→grant→release once warm, and fewer than
// one per four commit waits. About half the waits begin beside the other
// shard's, and a goroutine started per delivery costs about three
// allocations per commit wait (measured on a mutant), so a delivery that
// started goroutines fails here. What is left is the WAL's growth in
// memory and its checkpoints.
func TestGatedServerModestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	const conns, window = 2, 8 // acquires in flight per connection
	svc, err := Open(Config{Shards: 2, ShardCap: 1 << 12, Seed: 5, Durable: &Durability{
		Sinks: []durable.Sink{durable.NewMemSink(), durable.NewMemSink()},
		Fsync: FsyncGroup,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	gate := &slowGate{CommitGate: GroupGate(svc)}
	srv, err := NewServer(ServerConfig{Service: svc, Gate: gate})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		ln.Close()
		srv.Close()
	}()

	var failed atomic.Value
	sem := make(chan struct{}, conns*window)
	releaseCB := func(err error) {
		if err != nil {
			failed.Store(err)
		}
		<-sem
	}
	clients := make([]*Client, conns)
	acquireCBs := make([]func(Grant, error), conns)
	for i := range clients {
		c, err := Dial(ln.Addr().String(), ClientConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
		acquireCBs[i] = func(g Grant, err error) {
			if err != nil {
				failed.Store(err)
				<-sem
				return
			}
			c.Release(g.Name, releaseCB)
			c.Flush()
		}
	}
	client := uint64(0)
	run := func(ops int) {
		for i := 0; i < ops; i++ {
			sem <- struct{}{}
			client++ // consecutive IDs spread over both shards
			c := clients[i%conns]
			if err := c.Acquire(client, acquireCBs[i%conns]); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < cap(sem); i++ {
			sem <- struct{}{}
		}
		for i := 0; i < cap(sem); i++ {
			<-sem
		}
	}
	run(2048) // warm the pools, the cohorts, the WAL buffers and the goroutine stacks
	const ops = 1 << 14
	var before, after runtime.MemStats
	waits, paired := gate.waits.Load(), gate.paired.Load()
	runtime.ReadMemStats(&before)
	run(ops)
	runtime.ReadMemStats(&after)
	waits, paired = gate.waits.Load()-waits, gate.paired.Load()-paired
	if err, _ := failed.Load().(error); err != nil {
		t.Fatal(err)
	}
	mallocs := float64(after.Mallocs - before.Mallocs)
	t.Logf("%.0f mallocs over %d ops and %d commit waits (%d begun beside another): %.3f per op, %.3f per wait",
		mallocs, ops, waits, paired, mallocs/ops, mallocs/float64(waits))
	if mallocs/ops >= 1 {
		t.Errorf("gated round trip averaged %.2f allocs/op, want < 1", mallocs/ops)
	}
	if mallocs >= float64(waits)/4 {
		t.Errorf("%.0f allocs over %d commit waits, want fewer than one per four waits", mallocs, waits)
	}
}
