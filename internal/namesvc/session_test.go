package namesvc

import (
	"errors"
	"testing"
	"time"

	"ballsintoleaves/internal/faultnet"
)

// sessionTestConfig returns a SessionConfig tuned for fast fault
// detection in tests.
func sessionTestConfig(addrs ...string) SessionConfig {
	return SessionConfig{
		Addrs:          addrs,
		Client:         ClientConfig{Timeout: 300 * time.Millisecond},
		OpTimeout:      500 * time.Millisecond,
		ConnectTimeout: 5 * time.Second,
		BackoffBase:    10 * time.Millisecond,
		BackoffMax:     100 * time.Millisecond,
		Seed:           42,
	}
}

func TestSessionBasicOps(t *testing.T) {
	t.Parallel()
	svc, addr := startServer(t, Config{ShardCap: 32, Seed: 1})
	cfg := sessionTestConfig(addr)
	cfg.OpTimeout = 5 * time.Second
	s, err := DialSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close(); s.Wait() }()

	if got, want := s.Capacity(), 32; got != want {
		t.Fatalf("capacity %d, want %d", got, want)
	}
	g, err := s.AcquireSync(7)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if held := s.Held(); len(held) != 1 || held[g.Name] != 7 {
		t.Fatalf("held %v after acquire of %d", held, g.Name)
	}
	st, err := s.StatsSync()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Assigned != 1 {
		t.Fatalf("assigned %d, want 1", st.Assigned)
	}
	if err := s.ReleaseSync(g.Name); err != nil {
		t.Fatalf("release: %v", err)
	}
	if held := s.Held(); len(held) != 0 {
		t.Fatalf("held %v after release", held)
	}
	waitFor(t, "release visible", func() bool {
		return svc.Stats().Assigned == 0
	})
}

func TestSessionClosedRejectsOps(t *testing.T) {
	t.Parallel()
	_, addr := startServer(t, Config{ShardCap: 8, Seed: 2})
	s, err := DialSession(sessionTestConfig(addr))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Wait()
	if _, err := s.AcquireSync(1); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("acquire on closed session: %v", err)
	}
}

func TestSessionDialFailsWhenUnreachable(t *testing.T) {
	t.Parallel()
	cfg := sessionTestConfig("127.0.0.1:1") // nothing listens there
	cfg.ConnectTimeout = 300 * time.Millisecond
	if _, err := DialSession(cfg); err == nil {
		t.Fatal("DialSession reached a dead address")
	}
}

func TestSessionOpTimeoutUnderPartition(t *testing.T) {
	t.Parallel()
	_, addr := startServer(t, Config{ShardCap: 16, Seed: 3})
	link := faultnet.NewLink("c0")
	p, err := faultnet.NewProxy("127.0.0.1:0", addr, link)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	s, err := DialSession(sessionTestConfig(p.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close(); s.Wait() }()
	if _, err := s.AcquireSync(1); err != nil {
		t.Fatalf("warm acquire: %v", err)
	}
	link.Partition(false)
	start := time.Now()
	if _, err := s.AcquireSync(2); !errors.Is(err, ErrOpTimeout) {
		t.Fatalf("acquire under partition: %v, want ErrOpTimeout", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("timeout took %v, want ~OpTimeout", d)
	}
}

// TestSessionReconnectsAfterReset pins the self-healing loop: a reset
// connection is replaced without any caller re-dial, and the next op
// succeeds.
func TestSessionReconnectsAfterReset(t *testing.T) {
	t.Parallel()
	_, addr := startServer(t, Config{ShardCap: 16, Seed: 4})
	link := faultnet.NewLink("c0")
	p, err := faultnet.NewProxy("127.0.0.1:0", addr, link)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	s, err := DialSession(sessionTestConfig(p.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close(); s.Wait() }()
	g, err := s.AcquireSync(1)
	if err != nil {
		t.Fatalf("warm acquire: %v", err)
	}
	if err := s.ReleaseSync(g.Name); err != nil {
		t.Fatalf("warm release: %v", err)
	}
	link.ResetConns()
	// The next op may race the reset notice; ride through with retries.
	waitFor(t, "post-reset acquire", func() bool {
		g, err := s.AcquireSync(2)
		if err != nil {
			return false
		}
		s.ReleaseSync(g.Name)
		return true
	})
	if c := s.Counters(); c.Reconnects == 0 {
		t.Fatalf("counters %+v: no reconnect recorded", c)
	}
}

// TestSessionReclaimStealBeatsTeardown pins the binding-authority fix:
// a session that reconnects (via a second route to the same server) and
// reclaims its grants while the old connection's FIN is still stalled in
// a partition must keep every grant when the old connection's teardown
// finally runs — the teardown must not release stolen names.
func TestSessionReclaimStealBeatsTeardown(t *testing.T) {
	t.Parallel()
	svc, addr := startServer(t, Config{ShardCap: 32, Seed: 5})
	link1 := faultnet.NewLink("route1")
	p1, err := faultnet.NewProxy("127.0.0.1:0", addr, link1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p1.Close() })
	link2 := faultnet.NewLink("route2")
	p2, err := faultnet.NewProxy("127.0.0.1:0", addr, link2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p2.Close() })

	s, err := DialSession(sessionTestConfig(p1.Addr(), p2.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close(); s.Wait() }()

	const holders = 4
	names := make([]int, 0, holders)
	for i := 0; i < holders; i++ {
		g, err := s.AcquireSync(uint64(101 + i))
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		names = append(names, g.Name)
	}

	// Partition route 1 completely: the server cannot learn the old
	// connection died (the FIN is stalled), so its teardown is pending
	// while the session reconnects via route 2 and reclaims.
	link1.Partition(false)
	if _, err := s.AcquireSync(105); !errors.Is(err, ErrOpTimeout) {
		t.Fatalf("acquire during partition: %v, want ErrOpTimeout", err)
	}
	waitFor(t, "reconnect via route 2", func() bool {
		return s.Counters().Reconnects >= 1
	})
	c := s.Counters()
	if c.Lost != 0 || c.Reclaimed != holders {
		t.Fatalf("counters %+v: want %d reclaimed, 0 lost", c, holders)
	}
	if held := s.Held(); len(held) != holders {
		t.Fatalf("held %v, want the %d pre-partition grants", held, holders)
	}
	g5, err := s.AcquireSync(106)
	if err != nil {
		t.Fatalf("post-reconnect acquire: %v", err)
	}

	// Heal: the stalled FIN arrives, the old connection's teardown runs —
	// and must skip every stolen name.
	link1.Heal()
	time.Sleep(500 * time.Millisecond)

	for _, name := range append(names, g5.Name) {
		if err := s.ReleaseSync(name); err != nil {
			t.Fatalf("release of %d after teardown: %v (teardown released a stolen grant?)", name, err)
		}
	}
	waitFor(t, "all names free", func() bool {
		return svc.Stats().Assigned == 0
	})
	if c := s.Counters(); c.Lost != 0 {
		t.Fatalf("counters %+v: grants lost", c)
	}
}

// TestSessionGrantLostReporting pins the other side of the coin: when
// the server's teardown legitimately wins (it revoked the grants before
// the session could reclaim), the session reports each lost grant via
// OnGrantLost and drops it from Held — exact accounting either way — and
// the caller's release of a grant it was just told it lost succeeds (the
// Session release contract), while a release of a name the session never
// held, or already released, still fails NotHeld.
func TestSessionGrantLostReporting(t *testing.T) {
	t.Parallel()
	svc, addr := startServer(t, Config{ShardCap: 16, Seed: 6})
	link := faultnet.NewLink("c0")
	p, err := faultnet.NewProxy("127.0.0.1:0", addr, link)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	lost := make(chan int, 16)
	cfg := sessionTestConfig(p.Addr())
	cfg.OnGrantLost = func(client uint64, name int) { lost <- name }
	s, err := DialSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close(); s.Wait() }()

	const k = 4
	granted := make(map[int]bool, k)
	for i := 0; i < k; i++ {
		g, err := s.AcquireSync(uint64(7 + i))
		if err != nil {
			t.Fatalf("acquire %d: %v", i, err)
		}
		granted[g.Name] = true
	}
	// Reset both sides with the server alive: it sees the death immediately
	// and its teardown revokes the grants before the session can reclaim.
	// The session only notices a dead connection when an op fails, so wait
	// for the revocation first, then drive ops until the reconnect's
	// reclaim pass has reported every grant lost.
	link.ResetConns()
	waitFor(t, "teardown revoked the grants", func() bool {
		return svc.Stats().Assigned == 0
	})
	waitFor(t, "every grant reported lost", func() bool {
		s.StatsSync()
		return s.Counters().Lost == k
	})
	for i := 0; i < k; i++ {
		if name := <-lost; !granted[name] {
			t.Fatalf("lost %d, want one of %v", name, granted)
		}
	}
	if held := s.Held(); len(held) != 0 {
		t.Fatalf("held %v after revocation", held)
	}

	// The release contract. A name the session never held fails NotHeld.
	notHeld := func(what string, name int) {
		t.Helper()
		var rej *RejectError
		if err := s.ReleaseSync(name); !errors.As(err, &rej) || rej.Code != RejectNotHeld {
			t.Fatalf("%s %d: %v, want NotHeld", what, name, err)
		}
	}
	neverHeld := 1
	for granted[neverHeld] {
		neverHeld++
	}
	notHeld("release of never-held", neverHeld)
	names := make([]int, 0, k)
	for name := range granted {
		names = append(names, name)
	}
	early, late := names[:k/2], names[k/2:]
	// A lost grant released before its name is granted again succeeds
	// without reaching the server.
	before := svc.Stats().Releases
	for _, name := range early {
		if err := s.ReleaseSync(name); err != nil {
			t.Fatalf("release of lost grant %d: %v", name, err)
		}
	}
	if after := svc.Stats().Releases; after != before {
		t.Fatalf("releases of lost grants reached the server: %d -> %d", before, after)
	}
	// Every name is free again, so the next k acquires are granted the same
	// names. Releasing a late name twice — the lost grant and the new one,
	// indistinguishable by name — settles both and frees the name once.
	for i := 0; i < k; i++ {
		g, err := s.AcquireSync(uint64(20 + i))
		if err != nil || !granted[g.Name] {
			t.Fatalf("re-acquire %d: %v, %v; want one of %v", i, g, err, granted)
		}
	}
	for _, name := range late {
		for _, what := range []string{"first", "second"} {
			if err := s.ReleaseSync(name); err != nil {
				t.Fatalf("%s release of re-granted %d: %v", what, name, err)
			}
		}
	}
	for _, name := range early {
		if err := s.ReleaseSync(name); err != nil {
			t.Fatalf("release of re-granted %d: %v", name, err)
		}
	}
	for _, name := range names {
		notHeld("release of already-released", name)
	}
	if st := svc.Stats(); st.Assigned != 0 || st.Releases != before+k {
		t.Fatalf("after settling: %d assigned, %d releases, want 0 and %d", st.Assigned, st.Releases, before+k)
	}
}
