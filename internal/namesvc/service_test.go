package namesvc

import (
	"strings"
	"testing"
)

func TestServiceConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(Config{ShardCap: 0}); err == nil {
		t.Fatal("ShardCap 0 accepted")
	}
	if _, err := New(Config{Shards: 1 << 20, ShardCap: 1 << 20}); err == nil {
		t.Fatal("2^40-name namespace accepted")
	}
	svc, err := New(Config{ShardCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Shards() != 1 || svc.Capacity() != 8 {
		t.Fatalf("defaults: %d shards, capacity %d", svc.Shards(), svc.Capacity())
	}
}

func TestShardRouterDeterministicAndSpread(t *testing.T) {
	t.Parallel()
	svc, err := New(Config{Shards: 4, ShardCap: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 4)
	for client := uint64(1); client <= 4000; client++ {
		s := svc.Shard(client)
		if s != svc.Shard(client) {
			t.Fatalf("router not deterministic for client %d", client)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("shard %d got %d of 4000 clients (want ~1000)", s, c)
		}
	}
}

// TestServiceEndToEndInProcess drives the acceptance scenario against the
// in-process service: three-plus epochs of acquire/release traffic, name
// uniqueness throughout, reuse only after release, and grant absorption for
// a requester that vanishes mid-epoch.
func TestServiceEndToEndInProcess(t *testing.T) {
	t.Parallel()
	svc, err := New(Config{Shards: 2, ShardCap: 8, Seed: 42, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	active := map[int]uint64{} // name -> client
	everHeld := map[int]bool{} // names that were granted at least once
	released := map[int]bool{} // names currently released after being held
	grantAll := func(wantGrants int) []Grant {
		t.Helper()
		grants, err := svc.CloseEpochs()
		if err != nil {
			t.Fatal(err)
		}
		if len(grants) != wantGrants {
			t.Fatalf("granted %d, want %d", len(grants), wantGrants)
		}
		for _, g := range grants {
			if g.Name < 1 || g.Name > svc.Capacity() {
				t.Fatalf("name %d outside 1..%d", g.Name, svc.Capacity())
			}
			if holder, dup := active[g.Name]; dup {
				t.Fatalf("name %d granted to %d while held by %d", g.Name, g.Client, holder)
			}
			if shard, _ := svc.ShardOfName(g.Name); shard != svc.Shard(g.Client) {
				t.Fatalf("client %d routed to shard %d but granted name %d of shard %d",
					g.Client, svc.Shard(g.Client), g.Name, shard)
			}
			if everHeld[g.Name] && !released[g.Name] {
				t.Fatalf("name %d reused without an intervening release", g.Name)
			}
			active[g.Name] = g.Client
			everHeld[g.Name] = true
			delete(released, g.Name)
		}
		return grants
	}
	release := func(g Grant) {
		t.Helper()
		if err := svc.Release(g.Client, g.Name); err != nil {
			t.Fatal(err)
		}
		delete(active, g.Name)
		released[g.Name] = true
	}

	// Epoch 1: twelve clients arrive; all are granted.
	for client := uint64(1); client <= 12; client++ {
		if _, err := svc.Acquire(client, nil); err != nil {
			t.Fatal(err)
		}
	}
	first := grantAll(12)

	// Epoch 2: release half, re-acquire the same clients; their grants may
	// only draw on released or never-held names.
	for _, g := range first[:6] {
		release(g)
	}
	for _, g := range first[:6] {
		if _, err := svc.Acquire(g.Client, nil); err != nil {
			t.Fatal(err)
		}
	}
	grantAll(6)

	// Epoch 3+: churn the remaining capacity a few more rounds.
	for round := 0; round < 3; round++ {
		for name, client := range active {
			release(Grant{Client: client, Name: name})
		}
		for client := uint64(100 + round*50); client < uint64(100+round*50+6); client++ {
			if _, err := svc.Acquire(client, nil); err != nil {
				t.Fatal(err)
			}
		}
		grantAll(6)
	}

	st := svc.Stats()
	if st.Epochs < 3 {
		t.Fatalf("only %d epochs completed", st.Epochs)
	}
	if st.Pending != 0 {
		t.Fatalf("%d requests still pending", st.Pending)
	}
	if int(st.Grants-st.Releases) != st.Assigned {
		t.Fatalf("grants %d - releases %d != assigned %d", st.Grants, st.Releases, st.Assigned)
	}
}

// TestServiceAbsorbsVanishedRequester pins the crash-absorption path: a
// notify that reports its recipient gone bounces the name straight back,
// and the journal shows the assign+release pair inside the epoch.
func TestServiceAbsorbsVanishedRequester(t *testing.T) {
	t.Parallel()
	svc, err := New(Config{ShardCap: 4, Seed: 7, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Acquire(1, func(Grant) bool { return false }); err != nil {
		t.Fatal(err)
	}
	var got []Grant
	if _, err := svc.Acquire(2, func(g Grant) bool { got = append(got, g); return true }); err != nil {
		t.Fatal(err)
	}
	grants, err := svc.CloseEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 1 || len(got) != 1 || grants[0] != got[0] {
		t.Fatalf("grants = %v, notified = %v", grants, got)
	}
	st := svc.Stats()
	if st.Absorbed != 1 || st.Assigned != 1 {
		t.Fatalf("absorbed = %d, assigned = %d; want 1, 1", st.Absorbed, st.Assigned)
	}
	// The absorbed name is free again: the full namespace minus client 2's
	// name is acquirable.
	for client := uint64(10); client < 13; client++ {
		if _, err := svc.Acquire(client, nil); err != nil {
			t.Fatal(err)
		}
	}
	grants, err = svc.CloseEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 3 {
		t.Fatalf("granted %d of the remaining 3 names", len(grants))
	}
	journal := svc.ShardJournal(0)
	var assigns, releases int
	for _, e := range journal {
		switch e.Op {
		case OpAssign:
			assigns++
		case OpRelease:
			releases++
		}
	}
	if assigns != 5 || releases != 1 {
		t.Fatalf("journal has %d assigns, %d releases; want 5, 1", assigns, releases)
	}
}

// TestServiceAbsorbedBatchLeavesQueueRunnable pins the epoch-driver
// contract behind Server.drainShard: when an epoch's grants are all
// absorbed (every requester in the batch vanished), EpochRunnable still
// reports the shard drainable, and the next CloseEpoch serves the
// survivors' requests — nobody is stranded behind a dead batch.
func TestServiceAbsorbedBatchLeavesQueueRunnable(t *testing.T) {
	t.Parallel()
	svc, err := New(Config{ShardCap: 8, Seed: 5, MaxBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	dead := func(Grant) bool { return false }
	for client := uint64(1); client <= 3; client++ {
		if _, err := svc.Acquire(client, dead); err != nil {
			t.Fatal(err)
		}
	}
	var live []Grant
	for client := uint64(10); client <= 12; client++ {
		if _, err := svc.Acquire(client, func(g Grant) bool { live = append(live, g); return true }); err != nil {
			t.Fatal(err)
		}
	}
	grants, err := svc.CloseEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 0 {
		t.Fatalf("dead batch yielded %d accepted grants", len(grants))
	}
	if !svc.EpochRunnable(0) {
		t.Fatal("EpochRunnable = false with live requests queued behind an absorbed batch")
	}
	grants, err = svc.CloseEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 3 || len(live) != 3 {
		t.Fatalf("second epoch granted %d (notified %d), want 3", len(grants), len(live))
	}
	if svc.EpochRunnable(0) {
		t.Fatal("EpochRunnable = true with an empty queue")
	}
	// Exhausted namespace: queued but not runnable.
	for client := uint64(20); client < 26; client++ {
		if _, err := svc.Acquire(client, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.CloseEpoch(0); err != nil { // grants the remaining 5
		t.Fatal(err)
	}
	if _, err := svc.CloseEpoch(0); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.Free != 0 || st.Pending == 0 {
		t.Fatalf("stats = %+v, want exhausted with pending", st)
	}
	if svc.EpochRunnable(0) {
		t.Fatal("EpochRunnable = true with zero free names")
	}
}

func TestServiceCancelBeforeEpoch(t *testing.T) {
	t.Parallel()
	svc, err := New(Config{ShardCap: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Acquire(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Request IDs are per-shard sequences, so a matching ID from the wrong
	// client must not revoke someone else's request (client 999 routes to
	// the same single shard here).
	if svc.Cancel(999, id) {
		t.Fatal("foreign client cancelled another client's request")
	}
	if !svc.Cancel(1, id) {
		t.Fatal("cancel of a queued request failed")
	}
	if svc.Cancel(1, id) {
		t.Fatal("double cancel succeeded")
	}
	grants, err := svc.CloseEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 0 {
		t.Fatalf("cancelled request was granted: %v", grants)
	}
	if st := svc.Stats(); st.Epochs != 0 || st.Pending != 0 {
		t.Fatalf("epochs = %d, pending = %d after cancelled batch", st.Epochs, st.Pending)
	}
}

// TestServiceCancelSearchesQueue pins Cancel's lookup — a binary search of
// the shard's pending queue, which is in ascending request-ID order — on a
// queue that starts after a MaxBatch leftover and keeps its cancelled
// entries until the next epoch: first, middle, last, absent, already
// granted and already cancelled IDs each get the right answer.
func TestServiceCancelSearchesQueue(t *testing.T) {
	t.Parallel()
	svc, err := New(Config{ShardCap: 16, MaxBatch: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, 9) // ids[k] is client k's request; ids[0] unused
	for client := uint64(1); client <= 8; client++ {
		if ids[client], err = svc.Acquire(client, nil); err != nil {
			t.Fatal(err)
		}
	}
	// MaxBatch 2: the epoch grants requests 1 and 2 and leaves 3..8 queued.
	if grants, err := svc.CloseEpoch(0); err != nil || len(grants) != 2 {
		t.Fatalf("first epoch: %d grants, err %v", len(grants), err)
	}
	cancel := func(what string, client uint64, want bool) {
		t.Helper()
		if got := svc.Cancel(client, ids[client]); got != want {
			t.Fatalf("cancel of %s request %d = %v, want %v", what, ids[client], got, want)
		}
	}
	cancel("the already granted", 1, false)
	cancel("the already granted", 2, false)
	cancel("a middle", 5, true)
	cancel("the first", 3, true)
	cancel("the last", 8, true)
	cancel("the already cancelled middle", 5, false)
	cancel("the already cancelled first", 3, false)
	cancel("the already cancelled last", 8, false)
	for _, id := range []uint64{0, ids[8] + 1, 1 << 40} {
		if svc.Cancel(4, id) {
			t.Fatalf("cancel of absent request %d succeeded", id)
		}
	}
	if svc.Cancel(6, ids[4]) {
		t.Fatal("cancel of request 4 under client 6 succeeded")
	}
	// Cancelled entries are still in the queue around these two.
	cancel("a live request between cancelled ones", 4, true)
	cancel("a live request between cancelled ones", 7, true)
	if got := svc.Pending(0); got != 1 {
		t.Fatalf("pending = %d, want only request 6", got)
	}
	grants, err := svc.CloseEpoch(0)
	if err != nil || len(grants) != 1 || grants[0].ReqID != ids[6] {
		t.Fatalf("second epoch granted %v (err %v), want only request %d", grants, err, ids[6])
	}
	cancel("the request granted after the cancellations", 6, false)
	// A later arrival lands behind the emptied queue and is found again.
	id9, err := svc.Acquire(9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !svc.Cancel(9, id9) || svc.Pending(0) != 0 {
		t.Fatalf("cancel of a fresh request failed (pending %d)", svc.Pending(0))
	}
}

// TestServiceExhaustionAndBackfill: with the namespace full, acquires queue;
// each release makes exactly one queued acquire grantable.
func TestServiceExhaustionAndBackfill(t *testing.T) {
	t.Parallel()
	svc, err := New(Config{ShardCap: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for client := uint64(1); client <= 2; client++ {
		if _, err := svc.Acquire(client, nil); err != nil {
			t.Fatal(err)
		}
	}
	grants, err := svc.CloseEpoch(0)
	if err != nil || len(grants) != 2 {
		t.Fatalf("initial grants = %v, %v", grants, err)
	}
	if _, err := svc.Acquire(9, nil); err != nil {
		t.Fatal(err)
	}
	if g, err := svc.CloseEpoch(0); err != nil || len(g) != 0 {
		t.Fatalf("grant from a full namespace: %v, %v", g, err)
	}
	freed := grants[0]
	if err := svc.Release(freed.Client, freed.Name); err != nil {
		t.Fatal(err)
	}
	backfill, err := svc.CloseEpoch(0)
	if err != nil || len(backfill) != 1 {
		t.Fatalf("backfill grants = %v, %v", backfill, err)
	}
	if backfill[0].Name != freed.Name {
		t.Fatalf("backfill got %d, want the released %d", backfill[0].Name, freed.Name)
	}
	if backfill[0].Client != 9 {
		t.Fatalf("backfill went to client %d, want 9", backfill[0].Client)
	}
}

func TestServiceReleaseValidation(t *testing.T) {
	t.Parallel()
	svc, err := New(Config{Shards: 2, ShardCap: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Release(1, 0); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("release of name 0: %v", err)
	}
	if err := svc.Release(1, 9); err == nil {
		t.Fatal("release of out-of-range name succeeded")
	}
	if err := svc.Release(1, 3); err == nil {
		t.Fatal("release of unassigned name succeeded")
	}
	if _, err := svc.Acquire(0, nil); err == nil {
		t.Fatal("acquire with zero client succeeded")
	}
}
