package namesvc

import (
	"slices"
	"strings"
	"testing"

	"ballsintoleaves/internal/namesvc/durable"
	"ballsintoleaves/internal/wire"
)

// sealedRecord is one record a leader's hook observed.
type sealedRecord struct {
	shard   int
	payload []byte
}

// memDurable returns cfg over fresh MemSinks with the crash harness's
// snapshot cadence, so checkpoints interleave with the records.
func memDurable(cfg Config, sinks ...durable.Sink) Config {
	for len(sinks) < cfg.Shards {
		sinks = append(sinks, durable.NewMemSink())
	}
	cfg.Durable = &Durability{Sinks: sinks, Fsync: FsyncPerEpoch, SnapshotEvery: crashTraceSnapEvery}
	return cfg
}

// TestApplyReplicatedProvesLikeRecovery: a follower applies a leader's
// sealed records through the same proof recovery runs. In order, it tracks
// the leader record for record; a repeated record is a no-op and a skipped
// one a gap; a record whose sealed digest does not replay is refused by
// ApplyReplicated and by Open over a WAL holding the same bytes; and a
// record that assigns a name the follower already holds is refused.
func TestApplyReplicatedProvesLikeRecovery(t *testing.T) {
	leader, err := Open(memDurable(crashTraceConfig))
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	var recs []sealedRecord
	leader.SetRecordHook(func(shard int, payload []byte) {
		recs = append(recs, sealedRecord{shard, append([]byte(nil), payload...)})
	})
	runCrashTrace(t, leader, nil, func() {})
	if len(recs) < 8 {
		t.Fatalf("leader sealed only %d records", len(recs))
	}

	follower, err := Open(memDurable(crashTraceConfig))
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	probe := len(recs) / 2
	for i, r := range recs {
		seal, _, err := decodeWALRecord(r.payload, r.shard)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if i == probe {
			for _, next := range recs[i+1:] {
				if next.shard != r.shard {
					continue
				}
				before := follower.ShardPosition(r.shard)
				if _, err := follower.ApplyReplicated(next.shard, next.payload); err == nil {
					t.Fatalf("record %d applied over a skipped record", i)
				}
				if got := follower.ShardPosition(r.shard); got != before {
					t.Fatalf("refused gap moved shard %d from position %d to %d", r.shard, before, got)
				}
				break
			}
		}
		applied, err := follower.ApplyReplicated(r.shard, r.payload)
		if err != nil || !applied {
			t.Fatalf("record %d: applied=%v err=%v", i, applied, err)
		}
		fp := captureShard(follower, r.shard)
		if fp.digest != seal.digest || fp.assigns+fp.releases != seal.assigns+seal.releases {
			t.Fatalf("record %d: follower at digest %016x position %d, sealed %016x at %d",
				i, fp.digest, fp.assigns+fp.releases, seal.digest, seal.assigns+seal.releases)
		}
		if applied, err := follower.ApplyReplicated(r.shard, r.payload); applied || err != nil {
			t.Fatalf("record %d repeated: applied=%v err=%v, want (false, nil)", i, applied, err)
		}
	}
	if got, want := follower.Positions(nil), leader.Positions(nil); !slices.Equal(got, want) {
		t.Fatalf("follower positions %v, leader %v", got, want)
	}
	for i := 0; i < leader.Shards(); i++ {
		l, f := captureShard(leader, i), captureShard(follower, i)
		if f.digest != l.digest || !slices.Equal(f.holder, l.holder) {
			t.Fatalf("shard %d: follower digest %016x, leader %016x (holders equal: %v)",
				i, f.digest, l.digest, slices.Equal(f.holder, l.holder))
		}
	}

	// A record assigning a name the follower already holds, placed exactly
	// at the follower's position so only the replay can refuse it.
	fp := captureShard(follower, 0)
	held := 0
	for i, h := range fp.holder {
		if h != 0 {
			held = i + 1
			break
		}
	}
	if held == 0 {
		t.Fatal("workload left shard 0 with no held name")
	}
	seal := walSeal{
		epoch: fp.epoch + 1, nextID: fp.nextID + 1, digest: fp.digest,
		acquires: fp.acquires + 1, assigns: fp.assigns + 1, releases: fp.releases, absorbed: fp.absorbed,
	}
	var w wire.Writer
	appendWALRecord(&w, 0, seal, []Entry{{Epoch: seal.epoch, Op: OpAssign, Client: 1, ReqID: fp.nextID, Name: held}})
	if _, err := follower.ApplyReplicated(0, w.Bytes()); err == nil || !strings.Contains(err.Error(), "unassignable") {
		t.Fatalf("record assigning held name %d: err=%v, want unassignable", held, err)
	}

	// A record whose sealed digest is flipped, after a prefix of shard 0's
	// stream: the replica refuses it, and so does recovery over a WAL that
	// holds the same bytes.
	var shard0 [][]byte
	for _, r := range recs {
		if r.shard == 0 {
			shard0 = append(shard0, r.payload)
		}
	}
	k := len(shard0) / 2
	bad, entries, err := decodeWALRecord(shard0[k], 0)
	if err != nil {
		t.Fatal(err)
	}
	bad.digest ^= 1
	w.Reset()
	appendWALRecord(&w, 0, bad, entries)
	flipped := w.Bytes()

	replica, err := Open(memDurable(crashTraceConfig))
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	for i, p := range shard0[:k] {
		if _, err := replica.ApplyReplicated(0, p); err != nil {
			t.Fatalf("shard 0 record %d: %v", i, err)
		}
	}
	if _, err := replica.ApplyReplicated(0, flipped); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("flipped seal: err=%v, want a digest mismatch", err)
	}

	sink := durable.NewMemSink()
	store, _, err := durable.Open(sink, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(shard0[:k:k], flipped) {
		if _, err := store.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	if svc, err := Open(memDurable(crashTraceConfig, sink)); err == nil || !strings.Contains(err.Error(), "digest") {
		if svc != nil {
			svc.Close()
		}
		t.Fatalf("recovery over the flipped seal: err=%v, want a digest mismatch", err)
	}
}
