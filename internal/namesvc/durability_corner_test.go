package namesvc

import (
	"fmt"
	"net"
	"reflect"
	"testing"

	"ballsintoleaves/internal/namesvc/durable"
)

// cornerWorkload churns a service enough to dirty every durability surface:
// grants across epochs, releases, and a journal window.
func cornerWorkload(t *testing.T, svc *Service) []Grant {
	t.Helper()
	var held []Grant
	for round := 0; round < 6; round++ {
		for c := uint64(1); c <= 5; c++ {
			if _, err := svc.Acquire(uint64(round)*31+c*2654435761, nil); err != nil {
				t.Fatal(err)
			}
		}
		grants, err := svc.CloseEpochs()
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, grants...)
		for len(held) > 3 {
			g := held[0]
			held = held[1:]
			if err := svc.Release(g.Client, g.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	return held
}

// TestCleanCloseRecoversFromSnapshotAlone pins the Close contract under
// group commit, where records may still be unsynced when Close begins: Close
// is idempotent, and the image a clean Close leaves behind recovers from the
// snapshot alone — zero WAL records to replay.
func TestCleanCloseRecoversFromSnapshotAlone(t *testing.T) {
	t.Parallel()
	cfg := Config{Shards: 2, ShardCap: 16, Seed: 11, Journal: true, JournalLimit: 8}
	raw := make([]*durable.MemSink, cfg.Shards)
	sinks := make([]durable.Sink, cfg.Shards)
	for i := range raw {
		raw[i] = durable.NewMemSink()
		sinks[i] = raw[i]
	}
	cfg.Durable = &Durability{Sinks: sinks, Fsync: FsyncGroup, Logf: t.Logf}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cornerWorkload(t, svc)
	want := captureAll(svc)

	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Idempotent: a second Close must not re-run the checkpoint against a
	// closed store or return a new error.
	if err := svc.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}

	// The image recovers from the final checkpoint alone: a valid snapshot
	// and an empty WAL tail, so restart cost is O(snapshot), not O(history).
	for i, sink := range raw {
		store, rec, err := durable.Open(sink.Clone(), durable.Options{})
		if err != nil {
			t.Fatalf("shard %d: reopen image: %v", i, err)
		}
		if rec.Snapshot == nil || len(rec.Records) != 0 || rec.Torn {
			t.Fatalf("shard %d: clean close left snapshot=%v, %d records, torn=%v",
				i, rec.Snapshot != nil, len(rec.Records), rec.Torn)
		}
		store.Close()
	}

	// And a full service recovery over the image reproduces the exact
	// pre-close state, journal window included.
	cfg.Durable = &Durability{Sinks: sinks, Fsync: FsyncGroup, Logf: t.Logf}
	svc2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := captureAll(svc2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverged:\n got %+v\nwant %+v", got, want)
	}
}

// startServerOn serves an existing Service on a loopback socket — the
// durable-restart shape, where the ledger already holds state no connection
// owns.
func startServerOn(t *testing.T, svc *Service) string {
	t.Helper()
	srv, err := NewServer(ServerConfig{Service: svc, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ln.Close()
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestReclaimThenConnectionDies covers the restart-handshake corner: a
// rejected reclaim must NOT bind the name to the connection (its death
// leaves the name held), while a successful reclaim must (its death releases
// the name through the ordinary teardown, like any granted name).
func TestReclaimThenConnectionDies(t *testing.T) {
	t.Parallel()
	const owner = 77
	svc, err := New(Config{Shards: 1, ShardCap: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the "server restarted" state: the ledger holds a name for a
	// client no live connection represents.
	if _, err := svc.Acquire(owner, nil); err != nil {
		t.Fatal(err)
	}
	grants, err := svc.CloseEpoch(0)
	if err != nil || len(grants) != 1 {
		t.Fatalf("seed grant: %v, %d grants", err, len(grants))
	}
	orphan := grants[0].Name
	addr := startServerOn(t, svc)

	// Connection 1: wrong client. The reclaim is rejected, and to prove the
	// rejection bound nothing we give the connection a grant of its own —
	// teardown must release exactly that one.
	c1, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.AcquireSync(55); err != nil {
		t.Fatal(err)
	}
	if err := c1.ReclaimSync(owner+1, orphan); err == nil {
		t.Fatal("reclaim by wrong client succeeded")
	}
	if svc.Stats().Assigned != 2 {
		t.Fatalf("assigned = %d before teardown, want 2", svc.Stats().Assigned)
	}
	c1.Close()
	waitFor(t, "teardown of connection 1", func() bool { return svc.Stats().Assigned == 1 })
	if err := svc.Reclaim(owner, orphan); err != nil {
		t.Fatalf("rejected reclaim unbound the name: %v", err)
	}

	// Connection 2: right client, successful reclaim, then dies without
	// releasing. Teardown must reclaim the name for the namespace.
	c2, err := Dial(addr, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.ReclaimSync(owner, orphan); err != nil {
		t.Fatalf("reclaim by owner: %v", err)
	}
	c2.Close()
	waitFor(t, "teardown of connection 2", func() bool { return svc.Stats().Assigned == 0 })
}

// TestRecoverySnapshotWithEmptyTailSegments recovers from the image a crash
// leaves immediately after a checkpoint rotation: a valid snapshot plus WAL
// segments that are all empty files (the freshly rotated segment, and any
// pre-allocated successors). Empty segments are a no-op, not a tear.
func TestRecoverySnapshotWithEmptyTailSegments(t *testing.T) {
	t.Parallel()
	cfg := Config{Shards: 1, ShardCap: 16, Seed: 9, Journal: true, JournalLimit: 8}
	sink := durable.NewMemSink()
	cfg.Durable = &Durability{
		Sinks: []durable.Sink{sink}, Fsync: FsyncPerEpoch,
		SnapshotEvery: 1 << 20, // only explicit checkpoints
		Logf:          t.Logf,
	}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cornerWorkload(t, svc)
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := captureAll(svc)

	// Kill -9: clone the sink as-is (snapshot + empty rotated segment) and
	// scatter extra empty segments after it, as a crash between segment
	// pre-allocation and first append would leave.
	image := sink.Clone()
	seq := walSeqs(svc)[0]
	for _, later := range []uint64{seq + 1, seq + 64} {
		f, err := image.Create(fmt.Sprintf("wal-%016x.log", later))
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	svc.Close()

	// The store itself reports a snapshot-only recovery, no torn tail.
	probe, rec, err := durable.Open(image.Clone(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot == nil || len(rec.Records) != 0 || rec.Torn || rec.Seq != seq {
		t.Fatalf("recovered snapshot=%v, %d records, torn=%v, seq %d (want %d)",
			rec.Snapshot != nil, len(rec.Records), rec.Torn, rec.Seq, seq)
	}
	probe.Close()

	// And the service rebuilt over that image matches the live state and
	// keeps working durably.
	cfg.Durable = &Durability{Sinks: []durable.Sink{image}, Fsync: FsyncPerEpoch, Logf: t.Logf}
	svc2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := captureAll(svc2); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverged:\n got %+v\nwant %+v", got, want)
	}
	if _, err := svc2.Acquire(0xbeef, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := svc2.CloseEpoch(0); err != nil {
		t.Fatal(err)
	}
	if st := svc2.Stats(); st.WALFailures != 0 {
		t.Fatalf("recovered service degraded: %+v", st)
	}
}
