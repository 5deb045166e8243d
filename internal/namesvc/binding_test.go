package namesvc

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
)

// bindFixture is a Server with no listener and no epoch loops, so a test
// drives the binding table through the same entry points the connection
// handlers use (reclaim, teardown) with nothing else touching it.
type bindFixture struct {
	t   *testing.T
	svc *Service
	srv *Server
}

func newBindFixture(t *testing.T, shards, shardCap int) *bindFixture {
	t.Helper()
	svc, err := New(Config{Shards: shards, ShardCap: shardCap, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Service: svc, ManualEpochs: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &bindFixture{t: t, svc: svc, srv: srv}
}

// conn returns the server-side state of a connection nobody reads from.
func (f *bindFixture) conn() *svcConn {
	near, far := net.Pipe()
	f.t.Cleanup(func() { near.Close(); far.Close() })
	return f.srv.newConn(near)
}

// grant assigns perShard names on every shard at the service level and
// returns them as grants, shard by shard.
func (f *bindFixture) grant(perShard int) [][]Grant {
	f.t.Helper()
	need := make([]int, f.svc.Shards())
	for client, left := uint64(1), perShard*len(need); left > 0; client++ {
		if sh := f.svc.Shard(client); need[sh] < perShard {
			if _, err := f.svc.Acquire(client, nil); err != nil {
				f.t.Fatal(err)
			}
			need[sh]++
			left--
		}
	}
	grants, err := f.svc.CloseEpochs()
	if err != nil {
		f.t.Fatal(err)
	}
	byShard := make([][]Grant, f.svc.Shards())
	for _, g := range grants {
		byShard[g.Shard] = append(byShard[g.Shard], g)
	}
	return byShard
}

// list walks c's list of names on a shard, checking every link and owner.
// The fixture is single-threaded, so it reads the table without the stripe.
func (f *bindFixture) list(c *svcConn, shard int) map[int]uint64 {
	f.t.Helper()
	t := f.srv.bound
	names := map[int]uint64{}
	prev := uint32(0)
	for name := c.names[shard]; name != 0; name = t.entries[name].next {
		e := t.entries[name]
		if e.conn != c || e.prev != prev {
			f.t.Fatalf("shard %d: entry %d = %+v on a list of %p reached from %d", shard, name, e, c, prev)
		}
		if _, dup := names[int(name)]; dup || len(names) > len(t.entries) {
			f.t.Fatalf("shard %d: list revisits name %d", shard, name)
		}
		if got, _ := f.svc.ShardOfName(int(name)); got != shard {
			f.t.Fatalf("name %d of shard %d is on the list of shard %d", name, got, shard)
		}
		names[int(name)] = e.client
		prev = name
	}
	return names
}

func (f *bindFixture) wantList(c *svcConn, shard int, want ...Grant) {
	f.t.Helper()
	got := f.list(c, shard)
	if len(got) != len(want) {
		f.t.Fatalf("shard %d list = %v, want %v", shard, got, want)
	}
	for _, g := range want {
		if got[g.Name] != g.Client {
			f.t.Fatalf("shard %d list = %v, want %v", shard, got, want)
		}
	}
}

// bound counts the table's bound entries by scanning it.
func (f *bindFixture) bound() int {
	n := 0
	for _, e := range f.srv.bound.entries {
		if e.conn != nil {
			n++
		}
	}
	return n
}

// TestBindTable drives one table through every writer: bind, re-bind,
// unbind from the middle, head and tail of a list, a steal from a live
// connection and from one already marked dead, and a teardown that walks
// two shards' lists and releases exactly what the connection still owns.
func TestBindTable(t *testing.T) {
	t.Parallel()
	f := newBindFixture(t, 2, 8)
	g := f.grant(4)
	a, b := f.conn(), f.conn()

	for _, grants := range g {
		for _, gr := range grants {
			if err := f.srv.reclaim(a, gr.Client, gr.Name); err != nil {
				t.Fatalf("reclaim %+v: %v", gr, err)
			}
		}
	}
	f.wantList(a, 0, g[0]...)
	f.wantList(a, 1, g[1]...)

	// Binding is the ledger's relation, not the caller's say-so.
	if err := f.srv.reclaim(b, g[0][0].Client+1000, g[0][0].Name); err == nil {
		t.Fatal("reclaim under the wrong client succeeded")
	}
	if err := f.srv.reclaim(b, 77, 8); err == nil {
		t.Fatal("reclaim of a free name succeeded")
	}
	for _, name := range []int{0, -3, f.svc.Capacity() + 1} {
		if err := f.srv.reclaim(b, 77, name); err == nil {
			t.Fatalf("reclaim of out-of-range name %d succeeded", name)
		}
	}
	f.wantList(a, 0, g[0]...)
	f.wantList(b, 0)

	// Re-binding a name to its own connection neither duplicates nor drops it.
	if err := f.srv.reclaim(a, g[0][1].Client, g[0][1].Name); err != nil {
		t.Fatal(err)
	}
	f.wantList(a, 0, g[0]...)

	// Steal from a live connection: the name moves lists.
	if err := f.srv.reclaim(b, g[0][2].Client, g[0][2].Name); err != nil {
		t.Fatal(err)
	}
	f.wantList(a, 0, g[0][0], g[0][1], g[0][3])
	f.wantList(b, 0, g[0][2])

	// Unbind the head, the tail and the last remaining name of a list.
	unbind := func(gr Grant) {
		f.srv.bound.stripes[gr.Shard].Lock()
		f.srv.bound.unbind(gr.Shard, gr.Name)
		f.srv.bound.stripes[gr.Shard].Unlock()
		if err := f.svc.Release(gr.Client, gr.Name); err != nil {
			t.Fatal(err)
		}
	}
	unbind(g[1][3])
	f.wantList(a, 1, g[1][0], g[1][1], g[1][2])
	unbind(g[1][0])
	f.wantList(a, 1, g[1][1], g[1][2])
	unbind(g[1][1])
	unbind(g[1][2])
	f.wantList(a, 1)
	if err := f.srv.reclaim(a, g[1][2].Client, g[1][2].Name); err == nil {
		t.Fatal("reclaim of a released name succeeded")
	}

	// Steal from a dying connection: a is dead but its teardown has not
	// reached its lists yet. The stolen name must survive that teardown.
	a.mu.Lock()
	a.dead = true
	a.gone.Store(true)
	a.mu.Unlock()
	if err := f.srv.reclaim(b, g[0][0].Client, g[0][0].Name); err != nil {
		t.Fatal(err)
	}
	f.srv.teardown(a)
	f.wantList(a, 0)
	f.wantList(a, 1)
	f.wantList(b, 0, g[0][0], g[0][2])
	if st := f.svc.Stats(); st.Assigned != 2 || f.bound() != 2 {
		t.Fatalf("after a's teardown: %d assigned, %d bound, want 2 and 2", st.Assigned, f.bound())
	}

	// b's teardown walks both shards.
	h := f.grant(1)
	if err := f.srv.reclaim(b, h[1][0].Client, h[1][0].Name); err != nil {
		t.Fatal(err)
	}
	unowned := h[0][0] // ledger-held, bound nowhere: not b's to release
	f.srv.teardown(b)
	if st := f.svc.Stats(); st.Assigned != 1 || f.bound() != 0 {
		t.Fatalf("after b's teardown: %d assigned, %d bound, want 1 and 0", st.Assigned, f.bound())
	}
	if err := f.svc.Release(unowned.Client, unowned.Name); err != nil {
		t.Fatalf("teardown released a name bound to no connection: %v", err)
	}
}

// TestTeardownCostIsNamesHeld pins the teardown walk to the connection's own
// lists: on a table far larger than the connection's holdings, only the
// entries it owns are ever read, which the test observes by poisoning every
// other entry with an owner whose list would crash the walk.
func TestTeardownCostIsNamesHeld(t *testing.T) {
	t.Parallel()
	f := newBindFixture(t, 2, 1<<12)
	g := f.grant(3)
	a := f.conn()
	mine := map[int]bool{}
	for _, grants := range g {
		for _, gr := range grants {
			if err := f.srv.reclaim(a, gr.Client, gr.Name); err != nil {
				t.Fatal(err)
			}
			mine[gr.Name] = true
		}
	}
	poison := &svcConn{} // no names slice: unlinking from it would panic
	for name := range f.srv.bound.entries {
		if !mine[name] {
			f.srv.bound.entries[name] = binding{conn: poison, client: 1, prev: 1 << 30, next: 1 << 30}
		}
	}
	f.srv.teardown(a)
	if st := f.svc.Stats(); st.Assigned != 0 {
		t.Fatalf("%d names still assigned after teardown", st.Assigned)
	}
	for name := range mine {
		if e := f.srv.bound.entries[name]; e.conn != nil {
			t.Fatalf("name %d still bound after teardown: %+v", name, e)
		}
	}
}

// TestReleaseOfNameNotBoundHere: a release is honoured only on the
// connection the table binds the name to; a free, foreign, out-of-range or
// already-released name is rejected NotHeld and changes nothing.
func TestReleaseOfNameNotBoundHere(t *testing.T) {
	t.Parallel()
	svc, addr := startServer(t, Config{Shards: 2, ShardCap: 8, Seed: 4})
	owner, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	other, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	g, err := owner.AcquireSync(41)
	if err != nil {
		t.Fatal(err)
	}
	free := g.Name%svc.Capacity() + 1
	notHeld := func(what string, c *Client, name int) {
		t.Helper()
		var rej *RejectError
		if err := c.ReleaseSync(name); !errors.As(err, &rej) || rej.Code != RejectNotHeld {
			t.Fatalf("release of %s name %d: %v, want NotHeld", what, name, err)
		}
		if st := svc.Stats(); st.Assigned != 1 || st.Releases != 0 {
			t.Fatalf("release of %s name %d reached the ledger: %+v", what, name, st)
		}
	}
	notHeld("a foreign", other, g.Name)
	notHeld("an unbound", other, free)
	notHeld("an unbound", owner, free)
	notHeld("an out-of-range", owner, svc.Capacity()+1)
	notHeld("an out-of-range", owner, 1<<40)
	if err := owner.ReleaseSync(g.Name); err != nil {
		t.Fatal(err)
	}
	var rej *RejectError
	if err := owner.ReleaseSync(g.Name); !errors.As(err, &rej) || rej.Code != RejectNotHeld {
		t.Fatalf("second release: %v, want NotHeld", err)
	}
	if st := svc.Stats(); st.Assigned != 0 || st.Releases != 1 {
		t.Fatalf("after the release: %+v", st)
	}
}

// TestBindTableConcurrentChurn hammers the table from every writer at once:
// four connections churn acquire→release over two shards, a fifth steals
// whatever grants it hears of by reclaiming them (and releases what it
// stole), and a sixth goroutine keeps dialling connections that take names
// and die holding them. Whoever ends up owning a name must be able to
// release it exactly once, and when everything has disconnected nothing is
// assigned and nothing is bound.
func TestBindTableConcurrentChurn(t *testing.T) {
	t.Parallel()
	svc, err := New(Config{Shards: 2, ShardCap: 64, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Service: svc, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	const churners, rounds = 4, 150
	stolen := make(chan Grant) // unbuffered: a hand-off, then a race
	var steals atomic.Int64
	notHeldOrNil := func(err error) bool {
		var rej *RejectError
		return err == nil || (errors.As(err, &rej) && rej.Code == RejectNotHeld)
	}
	var churn sync.WaitGroup
	for w := 0; w < churners; w++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			c, err := Dial(addr, ClientConfig{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < rounds; i++ {
				// Consecutive IDs spread over both shards.
				client := uint64(1 + w*rounds + i)
				g, err := c.AcquireSync(client)
				if err != nil {
					t.Errorf("churner %d: acquire: %v", w, err)
					return
				}
				g.Client = client // not on the wire
				// The thief has the grant in hand when the send returns, so
				// its reclaim and this release race to the server. NotHeld
				// means the thief got there first and owns the name now.
				stolen <- g
				if err := c.ReleaseSync(g.Name); !notHeldOrNil(err) {
					t.Errorf("churner %d: release of %d: %v", w, g.Name, err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // the thief
		defer aux.Done()
		c, err := Dial(addr, ClientConfig{})
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		for {
			select {
			case <-stop:
				return
			case g := <-stolen:
				if c.ReclaimSync(g.Client, g.Name) != nil {
					continue // already released, or re-granted to another client
				}
				if err := c.ReleaseSync(g.Name); err != nil {
					t.Errorf("thief: release of reclaimed %d: %v", g.Name, err)
				}
				steals.Add(1)
			}
		}
	}()
	go func() { // the disconnector
		defer aux.Done()
		for client := uint64(1 << 20); ; client += 4 {
			select {
			case <-stop:
				return
			default:
			}
			c, err := Dial(addr, ClientConfig{})
			if err != nil {
				t.Error(err)
				return
			}
			for k := uint64(0); k < 4; k++ {
				g, err := c.AcquireSync(client + k)
				if err != nil {
					t.Errorf("disconnector: acquire: %v", err)
					break
				}
				g.Client = client + k
				select {
				case stolen <- g:
				case <-stop:
				}
			}
			c.Close() // dies holding up to four names, the thief after them
			c.Wait()
		}
	}()
	churn.Wait()
	close(stop)
	aux.Wait()

	// Close waits out every handler, teardowns included.
	ln.Close()
	srv.Close()
	if err := <-served; err != nil {
		t.Errorf("serve: %v", err)
	}
	t.Logf("%d steals", steals.Load())
	if st := svc.Stats(); st.Assigned != 0 || st.Pending != 0 {
		t.Errorf("after everyone left: %d assigned, %d pending", st.Assigned, st.Pending)
	}
	for name, e := range srv.bound.entries {
		if e.conn != nil {
			t.Errorf("name %d still bound to a connection (client %d)", name, e.client)
		}
	}
}
