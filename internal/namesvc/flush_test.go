package namesvc

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ballsintoleaves/internal/namesvc/durable"
)

// spySink counts the fsyncs one shard's sink sees and checks the store's
// half of the durable.File contract — on one sink, never two Syncs at once —
// over a MemSink. It can park segment fsyncs on a channel (to show what the
// service does while one is on the disk) and fail them with a genuine
// error. Callbacks run on whatever goroutine flushes, so violations are
// recorded and reported by the test goroutine.
type spySink struct {
	durable.Sink
	segSyncs atomic.Int64 // File.Sync on a WAL segment
	syncing  atomic.Int32
	overlap  atomic.Bool

	// parked, when non-nil, receives once per segment fsync as it begins;
	// the fsync then blocks until resume yields.
	parked chan struct{}
	resume chan struct{}
	// failWith, when set, is returned by every segment fsync from then on.
	failWith atomic.Pointer[error]
}

func (s *spySink) enter() func() {
	if s.syncing.Add(1) != 1 {
		s.overlap.Store(true)
	}
	return func() { s.syncing.Add(-1) }
}

func (s *spySink) Create(name string) (durable.File, error) {
	f, err := s.Sink.Create(name)
	if err != nil {
		return nil, err
	}
	return &spyFile{File: f, sink: s, segment: len(name) > 4 && name[:4] == "wal-"}, nil
}

func (s *spySink) Sync() error {
	defer s.enter()()
	return s.Sink.Sync()
}

type spyFile struct {
	durable.File
	sink    *spySink
	segment bool
}

func (f *spyFile) Sync() error {
	s := f.sink
	defer s.enter()()
	if !f.segment {
		return f.File.Sync()
	}
	s.segSyncs.Add(1)
	if s.parked != nil {
		s.parked <- struct{}{}
		<-s.resume
	}
	if err := s.failWith.Load(); err != nil {
		return *err
	}
	return f.File.Sync()
}

// openSpied opens a two-shard durable service over spied MemSinks; passing
// the spies of an earlier, closed service reopens what it left behind.
func openSpied(t *testing.T, d Durability, spies ...*spySink) (*Service, []*spySink) {
	t.Helper()
	if spies == nil {
		spies = []*spySink{{Sink: durable.NewMemSink()}, {Sink: durable.NewMemSink()}}
	}
	d.Sinks = []durable.Sink{spies[0], spies[1]}
	d.Logf = t.Logf
	svc, err := Open(Config{Shards: 2, ShardCap: 64, Seed: 7, Durable: &d})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc, spies
}

// clientOnShard returns the n-th client ID (from 1) that routes to shard.
func clientOnShard(svc *Service, shard, n int) uint64 {
	for c := uint64(1); ; c++ {
		if svc.Shard(c) == shard {
			if n--; n == 0 {
				return c
			}
		}
	}
}

// churn appends two WAL records to one shard: an epoch with one grant to
// the shard's n-th client, then its release.
func churn(svc *Service, shard, n int) error {
	client := clientOnShard(svc, shard, n)
	if _, err := svc.AcquireBatch(shard, []AcquireOp{{Client: client}}, nil); err != nil {
		return err
	}
	grants, err := svc.CloseEpoch(shard)
	if err != nil || len(grants) != 1 {
		return fmt.Errorf("shard %d: epoch granted %d, err %v", shard, len(grants), err)
	}
	return svc.Release(client, grants[0].Name)
}

func churnShard(t *testing.T, svc *Service, shard, n int) {
	t.Helper()
	if err := churn(svc, shard, n); err != nil {
		t.Fatal(err)
	}
}

// TestSyncWALSkipsCleanSegments: SyncWAL fsyncs only segments with records
// the last flush did not cover — an embedder's idle ticks cost nothing, a
// tick after traffic on one shard costs that shard's fsync and no other.
func TestSyncWALSkipsCleanSegments(t *testing.T) {
	t.Parallel()
	svc, spies := openSpied(t, Durability{Fsync: FsyncGroup})
	tick := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := svc.SyncWAL(); err != nil {
				t.Fatal(err)
			}
		}
	}
	tick(10)
	if a, b := spies[0].segSyncs.Load(), spies[1].segSyncs.Load(); a != 0 || b != 0 {
		t.Fatalf("10 idle ticks issued %d + %d segment fsyncs, want none", a, b)
	}
	churnShard(t, svc, 1, 1)
	tick(10)
	if a, b := spies[0].segSyncs.Load(), spies[1].segSyncs.Load(); a != 0 || b != 1 {
		t.Fatalf("traffic on shard 1 then 10 ticks: %d fsyncs of shard 0, %d of shard 1; want 0 and 1", a, b)
	}
	churnShard(t, svc, 0, 1)
	churnShard(t, svc, 1, 2)
	tick(1)
	if a, b := spies[0].segSyncs.Load(), spies[1].segSyncs.Load(); a != 1 || b != 2 {
		t.Fatalf("traffic on both shards then a tick: %d and %d fsyncs in total, want 1 and 2", a, b)
	}
}

// TestFsyncRunsOutsideShardLock: while a shard's segment fsync is parked on
// the disk, that same shard still takes an acquire batch, closes the epoch
// and takes the release — and the records those append are not claimed by
// the flush that was already in flight.
func TestFsyncRunsOutsideShardLock(t *testing.T) {
	t.Parallel()
	svc, spies := openSpied(t, Durability{Fsync: FsyncGroup})
	churnShard(t, svc, 0, 1)
	spies[0].parked = make(chan struct{})
	spies[0].resume = make(chan struct{})
	flushed := make(chan error, 1)
	go func() { flushed <- svc.SyncWAL() }()
	<-spies[0].parked // shard 0's fsync is on the disk

	store := svc.shards[0].dur.store
	captured := store.Seq()
	worked := make(chan error, 1)
	go func() { worked <- churn(svc, 0, 2) }()
	select {
	case err := <-worked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		spies[0].resume <- struct{}{} // let the cleanup's Close through
		t.Fatal("shard 0 stalled behind its own parked fsync: the flush holds the shard lock")
	}
	if got := store.Synced(); got >= captured {
		t.Fatalf("watermark %d before the fsync returned", got)
	}
	spies[0].resume <- struct{}{}
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if got := store.Synced(); got != captured {
		t.Fatalf("flush that began at record %d published watermark %d (shard is at %d)", captured, got, store.Seq())
	}
	if spies[0].overlap.Load() {
		t.Fatal("two Syncs ran at once on shard 0's sink")
	}
}

// TestFlushRacingCheckpoint hammers both shards with group-commit flushes,
// per shard and all at once, while the shards rotate their WAL underneath:
// no flush may lose the race in a way that fails a shard, overlaps another
// Sync on the same sink, or returns before the caller's records are
// covered, and what a reopen recovers must be the live state. Then a
// genuine fsync error on one shard must fail that shard, and only it.
func TestFlushRacingCheckpoint(t *testing.T) {
	t.Parallel()
	group := Durability{Fsync: FsyncGroup, SnapshotEvery: 5}
	svc, spies := openSpied(t, group)
	const rotations = 4
	stores := []*durable.Store{svc.shards[0].dur.store, svc.shards[1].dur.store}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// hammer flushes in a loop; each flush must cover what the given stores
	// had appended when it was called.
	hammer := func(flush func() error, stores ...*durable.Store) {
		defer wg.Done()
		before := make([]uint64, len(stores))
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, st := range stores {
				before[i] = st.Seq()
			}
			if err := flush(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			for i, st := range stores {
				if got := st.Synced(); got < before[i] {
					t.Errorf("a flush returned at watermark %d; %d records were appended before it began", got, before[i])
					return
				}
			}
		}
	}
	wg.Add(3)
	go hammer(func() error { return svc.SyncShard(0) }, stores[0])
	go hammer(func() error { return svc.SyncShard(1) }, stores[1])
	go hammer(svc.SyncWAL, stores...)
	for n := 1; svc.Stats().WALSnapshots < 2*rotations; n++ {
		if n > 1000 {
			t.Fatal("the shards never checkpointed")
		}
		churnShard(t, svc, 0, n)
		churnShard(t, svc, 1, n)
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, spy := range spies {
		if spy.overlap.Load() {
			t.Errorf("two Syncs ran at once on shard %d's sink", i)
		}
		if snaps := svc.shards[i].dur.snapshots; snaps < rotations-1 {
			t.Errorf("shard %d rotated only %d times", i, snaps)
		}
	}
	if st := svc.Stats(); st.WALFailures != 0 {
		t.Fatalf("%d WAL failures: a flush lost its race with a checkpoint", st.WALFailures)
	}
	live := captureAll(svc)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	svc, _ = openSpied(t, group, spies...)
	if got := captureAll(svc); !reflect.DeepEqual(got, live) {
		t.Fatalf("reopened state diverged from the live one:\n got %+v\nwant %+v", got, live)
	}

	// A genuine fsync error fails exactly the shard it hit.
	boom := errors.New("EIO")
	spies[1].failWith.Store(&boom)
	churnShard(t, svc, 0, 2000)
	churnShard(t, svc, 1, 2000)
	queued := clientOnShard(svc, 1, 3000)
	if _, err := svc.AcquireBatch(1, []AcquireOp{{Client: queued}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := svc.SyncWAL(); !errors.Is(err, boom) {
		t.Fatalf("SyncWAL over a failing disk: %v, want %v", err, boom)
	}
	if err := svc.SyncShard(0); err != nil {
		t.Fatalf("healthy shard 0: %v", err)
	}
	if st := svc.Stats(); st.WALFailures != 1 {
		t.Fatalf("%d WAL failures after one failed fsync, want 1", st.WALFailures)
	}
	if err0, err1 := svc.shards[0].refusal(), svc.shards[1].refusal(); err0 != nil || !errors.Is(err1, boom) {
		t.Fatalf("failed: shard 0 %v, shard 1 %v; want only shard 1", err0, err1)
	}
	// The failure is sticky and loud: the shard refuses writes, and every
	// later flush returns it again, while shard 0 stays healthy.
	if _, err := svc.CloseEpoch(1); !errors.Is(err, boom) || svc.Pending(1) != 0 {
		t.Fatalf("epoch on the failed shard: %v with %d queued, want a refusal wrapping %v and an empty queue",
			err, svc.Pending(1), boom)
	}
	if grants, err := svc.CloseEpoch(1); len(grants) > 0 || err != nil {
		t.Fatalf("epoch on the failed, empty shard: %d grants, %v", len(grants), err)
	}
	if err := churn(svc, 1, 2001); !errors.Is(err, boom) {
		t.Fatalf("churn on the failed shard: %v, want a refusal wrapping %v", err, boom)
	}
	if err := svc.SyncWAL(); !errors.Is(err, boom) {
		t.Fatalf("SyncWAL after the failure: %v, want %v", err, boom)
	}
	if err := svc.SyncShard(1); !errors.Is(err, boom) {
		t.Fatalf("SyncShard(1) after the failure: %v, want %v", err, boom)
	}
	churnShard(t, svc, 0, 2001)
	if err := svc.SyncShard(0); err != nil {
		t.Fatalf("healthy shard 0 after shard 1 failed: %v", err)
	}
	if st := svc.Stats(); st.WALFailures != 1 {
		t.Fatalf("%d WAL failures, want the one", st.WALFailures)
	}
}

// TestServerPicksItsServiceGate: a Server given no Gate over an FsyncGroup
// service waits on the service's own flush — no grant frame reaches the
// client while the fsync covering its record is parked on the disk, and
// the grant arrives once that fsync returns.
func TestServerPicksItsServiceGate(t *testing.T) {
	t.Parallel()
	svc, spies := openSpied(t, Durability{Fsync: FsyncGroup})
	const client = 1
	spy := spies[svc.Shard(client)]
	spy.parked = make(chan struct{})
	spy.resume = make(chan struct{})
	c, err := Dial(startServerOn(t, svc), ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	granted := make(chan error, 1)
	if err := c.Acquire(client, func(_ Grant, err error) { granted <- err }); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-spy.parked:
	case err := <-granted:
		t.Fatalf("grant delivered before any flush covered its record (err %v)", err)
	case <-time.After(10 * time.Second):
		t.Fatal("neither a flush nor a grant")
	}
	select {
	case err := <-granted:
		spy.resume <- struct{}{}
		t.Fatalf("grant delivered while the flush covering it was parked (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	spy.resume <- struct{}{}
	select {
	case err := <-granted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no grant after the flush returned")
	}
}

// TestServerFailsClosed: a server given no Gate over a durable service —
// group commit or per-epoch fsync — never delivers a grant its shard could
// not log. Once shard 1's segment fsync fails, the acquire it was logging
// and later acquires and releases on shard 1 are rejected with the disk's
// error, shard 0 keeps serving, and what a power cut leaves on the disks
// holds every grant the client was given.
func TestServerFailsClosed(t *testing.T) {
	t.Parallel()
	for _, mode := range []FsyncMode{FsyncGroup, FsyncPerEpoch} {
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			d := Durability{Fsync: mode}
			svc, spies := openSpied(t, d)
			srv, err := NewServer(ServerConfig{Service: svc, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			c, err := Dial(ln.Addr().String(), ClientConfig{})
			if err != nil {
				t.Fatal(err)
			}
			var acked []Grant
			acquire := func(shard, n int) (Grant, error) {
				client := clientOnShard(svc, shard, n)
				g, err := c.AcquireSync(client)
				g.Client = client // grant frames do not echo it
				return g, err
			}
			for n := 1; n <= 3; n++ {
				for shard := 0; shard < 2; shard++ {
					g, err := acquire(shard, n)
					if err != nil {
						t.Fatal(err)
					}
					acked = append(acked, g)
				}
			}

			boom := errors.New("EIO")
			spies[1].failWith.Store(&boom)
			refused := func(op string, err error) {
				t.Helper()
				var rej *RejectError
				if !errors.As(err, &rej) || rej.Code != RejectInternal || !strings.Contains(rej.Msg, boom.Error()) {
					t.Fatalf("%s on failed shard 1: %v, want RejectInternal carrying %v", op, err, boom)
				}
			}
			// The acquire whose record the failed fsync covered is answered
			// with the failure, never with its grant.
			g, err := acquire(1, 4)
			if err == nil {
				t.Fatalf("the acquire shard 1 failed to log was granted %+v", g)
			}
			refused("the acquire being logged", err)
			if n := svc.Stats().WALFailures; n != 1 {
				t.Fatalf("WALFailures = %d, want 1", n)
			}

			// A follower acknowledges after SyncWAL: it must report the
			// failure even when the failed write never advanced the
			// segment past its durable watermark (per-epoch fsync).
			if err := svc.SyncWAL(); !errors.Is(err, boom) {
				t.Fatalf("SyncWAL after shard 1 failed: %v, want %v", err, boom)
			}
			g, err = acquire(0, 4)
			if err != nil {
				t.Fatalf("shard 0 after shard 1 failed: %v", err)
			}
			acked = append(acked, g)
			_, err = acquire(1, 5)
			refused("acquire", err)
			refused("release", c.ReleaseSync(acked[1].Name))

			// Cut the power while the server runs: a clean close would
			// release every name the connection holds. Every write to a
			// shard's sink happens under its shard lock, so copying under it
			// orders the image after every earlier write and before the
			// releases the connection's teardown logs later.
			image := make([]*spySink, len(spies))
			for i, spy := range spies {
				sh := svc.shards[i]
				sh.mu.Lock()
				image[i] = &spySink{Sink: spy.Sink.(*durable.MemSink).Clone()}
				sh.mu.Unlock()
			}
			reopened, _ := openSpied(t, d, image...)
			for _, g := range acked {
				if err := reopened.Reclaim(g.Client, g.Name); err != nil {
					t.Errorf("acknowledged grant %+v lost across a power cut: %v", g, err)
				}
			}

			c.Close()
			ln.Close()
			srv.Close()
			if err := svc.Close(); !errors.Is(err, boom) {
				t.Fatalf("Close: %v, want %v", err, boom)
			}
		})
	}
}

// TestServerAnswersQueueOfFailedShard: an acquire still queued on shard 1
// when its disk fails — no free name was left for it — is answered with
// RejectInternal carrying the disk's error, and never granted. Under group
// commit the failure is the flush a commit wait holds on the disk; under
// per-epoch fsync it is a release's, which frees the name the queued
// acquire would have taken.
func TestServerAnswersQueueOfFailedShard(t *testing.T) {
	t.Parallel()
	for _, mode := range []FsyncMode{FsyncGroup, FsyncPerEpoch} {
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			svc, spies := openSpied(t, Durability{Fsync: mode})
			spy := spies[1]
			c, err := Dial(startServerOn(t, svc), ClientConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			answered := func(n int) chan error {
				done := make(chan error, 1)
				if err := c.Acquire(clientOnShard(svc, 1, n), func(_ Grant, err error) { done <- err }); err != nil {
					t.Fatal(err)
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				return done
			}
			boom := errors.New("EIO")
			refused := func(what string, done chan error) {
				t.Helper()
				select {
				case err := <-done:
					var rej *RejectError
					if !errors.As(err, &rej) || rej.Code != RejectInternal || !strings.Contains(rej.Msg, boom.Error()) {
						t.Fatalf("%s: %v, want RejectInternal carrying %v", what, err, boom)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%s: no answer", what)
				}
			}

			// Every name of shard 1 but the last is granted.
			const names = 64 // openSpied's ShardCap
			var held []Grant
			for n := 1; n < names; n++ {
				g, err := c.AcquireSync(clientOnShard(svc, 1, n))
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, g)
			}
			var last chan error
			if mode == FsyncGroup {
				// The last name's commit wait holds its flush on the disk.
				spy.parked = make(chan struct{})
				spy.resume = make(chan struct{})
				last = answered(names)
				<-spy.parked
			} else if _, err := c.AcquireSync(clientOnShard(svc, 1, names)); err != nil {
				t.Fatal(err)
			}
			queued := answered(names + 1)
			waitFor(t, "the acquire to queue on the exhausted shard", func() bool { return svc.Pending(1) == 1 })

			spy.failWith.Store(&boom)
			if mode == FsyncGroup {
				spy.resume <- struct{}{}
				refused("the acquire whose flush failed", last)
			} else {
				// The release's record fails to sync; shard 1 refuses from
				// here on, and the name it freed is never granted.
				c.ReleaseSync(held[0].Name)
			}
			refused("the acquire queued when shard 1 failed", queued)
			if n := svc.Stats().WALFailures; n != 1 {
				t.Fatalf("WALFailures = %d, want 1", n)
			}
			if n := svc.Pending(1); n != 0 {
				t.Fatalf("%d acquires still queued on failed shard 1", n)
			}
		})
	}
}

// TestCommitVerdictOutlivesLaterFailure: the gate's verdict on a batch is
// final. A grant whose commit wait returns nil is delivered although its
// shard fails while that wait is under way; a batch the shard refused — it
// was swapped in after the failure — is rejected with the failure although
// a gate that never consults SyncShard returns nil for it too.
func TestCommitVerdictOutlivesLaterFailure(t *testing.T) {
	t.Parallel()
	svc, spies := openSpied(t, Durability{Fsync: FsyncGroup})
	gate := newStepGate()
	srv, err := NewServer(ServerConfig{Service: svc, Gate: gate, ManualEpochs: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		close(gate.done)
		ln.Close()
		srv.Close()
	})
	// A manual epoch op holds its connection's read loop through the commit
	// wait, so the queued acquire comes on a second connection.
	c, q := dialPipeline(t, ln.Addr().String()), dialPipeline(t, ln.Addr().String())
	epoch := func() chan error {
		closed := make(chan error, 1)
		go func() {
			_, _, err := c.EpochSync(1)
			closed <- err
		}()
		return closed
	}

	c.acquire(t, clientOnShard(svc, 1, 1))
	first := epoch()
	gate.awaitEntered(t)
	q.acquire(t, clientOnShard(svc, 1, 2)) // queues behind the epoch in flight
	waitFor(t, "the second acquire to queue", func() bool { return svc.Pending(1) == 1 })
	boom := errors.New("EIO")
	spies[1].failWith.Store(&boom)
	if err := svc.SyncWAL(); !errors.Is(err, boom) {
		t.Fatalf("SyncWAL: %v, want %v", err, boom)
	}
	gate.verdict <- nil
	if err := <-first; err != nil {
		t.Fatalf("the epoch whose commit wait returned nil: %v", err)
	}
	if got := c.granted(); got != 1 || len(c.errs) != 0 {
		t.Fatalf("%d grants and errors %v after the commit wait returned nil, want the grant", got, c.errs)
	}

	second := epoch()
	gate.awaitEntered(t) // the refused request's batch
	gate.verdict <- nil
	<-second
	waitFor(t, "the queued acquire's answer", func() bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return len(q.errs)+len(q.grants) > 0
	})
	q.mu.Lock()
	defer q.mu.Unlock()
	var rej *RejectError
	if len(q.grants) != 0 || len(q.errs) != 1 || !errors.As(q.errs[0], &rej) ||
		rej.Code != RejectInternal || !strings.Contains(rej.Msg, boom.Error()) {
		t.Fatalf("queued acquire on the failed shard: grants %+v, errors %v; want RejectInternal carrying %v", q.grants, q.errs, boom)
	}
}
