package namesvc

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
)

// benchChurn drives the service's steady-state loop — queue a batch of
// acquires, close the epoch, release every grant — the regime where a
// long-lived allocator spends its life. One benchmark op is one full
// acquire→grant→release cycle of a single name.
func benchChurn(b *testing.B, shards, shardCap, batch int) {
	svc, err := New(Config{Shards: shards, ShardCap: shardCap, Seed: 1, MaxBatch: batch})
	if err != nil {
		b.Fatal(err)
	}
	// Client IDs all routed to shard 0 keep the loop single-shard and the
	// batch size exact.
	clients := make([]uint64, batch)
	next := uint64(1)
	for i := range clients {
		for svc.Shard(next) != 0 {
			next++
		}
		clients[i] = next
		next++
	}
	cycle := func() {
		for _, cl := range clients {
			if _, err := svc.Acquire(cl, nil); err != nil {
				b.Fatal(err)
			}
		}
		grants, err := svc.CloseEpoch(0)
		if err != nil {
			b.Fatal(err)
		}
		if len(grants) != batch {
			b.Fatalf("granted %d of %d", len(grants), batch)
		}
		for _, g := range grants {
			if err := svc.Release(g.Client, g.Name); err != nil {
				b.Fatal(err)
			}
		}
	}
	cycle() // warm scratch and caches
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		cycle()
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "ops/s")
	}
}

// BenchmarkServiceChurn is the acquire/release steady state over a 64k-name
// shard: the free pool stays nearly full, the worst case for any free-list
// representation whose per-op cost scales with the pool.
func BenchmarkServiceChurn(b *testing.B) {
	for _, batch := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("cap=65536/batch=%d", batch), func(b *testing.B) {
			benchChurn(b, 1, 1<<16, batch)
		})
	}
}

// BenchmarkLedgerChurn isolates the free-list data structure: one op is an
// assign of the smallest free name plus its release, against an almost-full
// 64k free pool.
func BenchmarkLedgerChurn(b *testing.B) {
	l := newLedger(1<<16, false, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := l.peekFree(1)[0]
		l.assign(1, uint64(i+1), 7, name)
		if err := l.release(1, 7, name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLedgerScatteredRelease releases and re-assigns names scattered
// across the namespace — the memmove-hostile access pattern for a sorted
// slice, the bitmap's O(1) case.
func BenchmarkLedgerScatteredRelease(b *testing.B) {
	const capacity = 1 << 16
	const stride = 127 // co-prime with capacity: visits every name
	l := newLedger(capacity, false, 0)
	b.ReportAllocs()
	b.ResetTimer()
	name := 1
	for i := 0; i < b.N; i++ {
		l.assign(1, uint64(i+1), 7, name)
		if err := l.release(1, 7, name); err != nil {
			b.Fatal(err)
		}
		name = (name-1+stride)%capacity + 1
	}
}

// BenchmarkServerPipeline measures the full wire round trip: pipelining
// clients keep a window of acquires in flight over loopback TCP; every
// grant is released immediately. One op is one acquire→grant→release over
// the socket. The callbacks are created once and reused, so the allocation
// report measures the client/server data plane, not the harness; the
// benchmark fails if the whole round trip — client fast path, server burst
// ingestion, epoch, coalesced delivery — averages a heap allocation per op
// (the strict client-side zero is pinned by
// TestClientSteadyStateZeroAllocs). conns=1/shards=1 is the single-pipe
// cost; conns=2/shards=2 has two connections' bursts and two shards'
// deliveries crossing, which is where a lock shared between connections or
// between shards shows.
func BenchmarkServerPipeline(b *testing.B) {
	b.Run("conns=1/shards=1", func(b *testing.B) { benchServerPipeline(b, 1, 1) })
	b.Run("conns=2/shards=2", func(b *testing.B) { benchServerPipeline(b, 2, 2) })
}

func benchServerPipeline(b *testing.B, conns, shards int) {
	svc, err := New(Config{Shards: shards, ShardCap: 1 << 14, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Service: svc})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ln.Close()
		srv.Close()
		if err := <-done; err != nil {
			b.Errorf("serve: %v", err)
		}
	}()

	const window = 256 // in flight across all connections
	sem := make(chan struct{}, window)
	var client atomic.Uint64
	releaseCB := func(err error) {
		if err != nil {
			b.Errorf("release: %v", err)
		}
		<-sem
	}
	clients := make([]*Client, conns)
	acquireCBs := make([]func(Grant, error), conns)
	for i := range clients {
		c, err := Dial(ln.Addr().String(), ClientConfig{})
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
		acquireCBs[i] = func(g Grant, err error) {
			if err != nil {
				b.Errorf("acquire: %v", err)
				<-sem
				return
			}
			c.Release(g.Name, releaseCB)
		}
	}
	// Consecutive client IDs spread over the shards; connections take turns.
	acquire := func(i int) {
		sem <- struct{}{}
		if err := clients[i%conns].Acquire(client.Add(1), acquireCBs[i%conns]); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the window and the shards' cohorts before measuring.
	for i := 0; i < window; i++ {
		acquire(i)
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acquire(i)
		// Yield after each buffered acquire: on a single-P runtime a tight
		// issuing loop starves the read goroutine and the in-process server
		// of the CPU they need to drain the pipeline it fills; the yield is
		// what any saturating driver does (blload's workers do the same).
		runtime.Gosched()
	}
	// Drain the window so every op completed inside the timed region.
	for i := 0; i < window; i++ {
		sem <- struct{}{}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	// Only meaningful once fixed warmup costs amortize away; calibration
	// runs (and the CI -benchtime 1x smoke) are too short to judge.
	if perOp := float64(after.Mallocs-before.Mallocs) / float64(b.N); b.N >= 1<<16 && perOp >= 1 && !raceEnabled {
		b.Errorf("pipelined round trip averaged %.2f allocs/op, want amortized < 1", perOp)
	}
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed, "ops/s")
	}
}
