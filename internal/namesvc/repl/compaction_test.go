package repl

import (
	"errors"
	"testing"
	"time"

	"ballsintoleaves/internal/namesvc/durable"
)

// failSink is a meta-store sink whose slot writes can be made to fail,
// for pinning the persist-before-prune discipline.
type failSink struct {
	*durable.MemSink
	fail  bool
	saves int
}

func (s *failSink) Create(name string) (durable.File, error) {
	if s.fail {
		return nil, errors.New("injected meta failure")
	}
	s.saves++
	return s.MemSink.Create(name)
}

// persisted is the election state a restart would load.
func (s *failSink) persisted() meta {
	m, _ := sinkMeta{sink: s, base: metaBase}.load()
	return m
}

func newFailSink(fail bool) *failSink {
	return &failSink{MemSink: durable.NewMemSink(), fail: fail}
}

// compactNode builds a minimal leader for exercising compactLocked
// directly: deterministic state, no goroutines, no network.
func compactNode(store *failSink, retain int) (*Node, *leaderState) {
	n := &Node{
		cfg: Config{
			NodeID:        0,
			Peers:         []PeerSpec{{ReplAddr: "a"}, {ReplAddr: "b"}, {ReplAddr: "c"}},
			RetainRecords: retain,
			Logf:          func(string, ...any) {},
		},
		quorum: 2,
		meta:   sinkMeta{sink: store, base: metaBase},
	}
	l := &leaderState{
		baseIdx: 1,
		nextIdx: 1,
		match:   make(map[int]uint64),
		links:   make(map[int]*followerLink),
	}
	n.ldr = l
	return n, l
}

func fillQueue(l *leaderState, upto uint64) {
	for idx := l.nextIdx; idx <= upto; idx++ {
		l.queue = append(l.queue, queuedRecord{shard: 0, payload: []byte{byte(idx)}})
		l.nextIdx++
	}
}

// TestCompactLockedSoftBound: the continuous prune tracks the committed-
// and-acknowledged-everywhere prefix — bounded by the commit index and by
// the slowest live link, while a partitioned peer (no link) does not hold
// the floor back.
func TestCompactLockedSoftBound(t *testing.T) {
	store := newFailSink(false)
	n, l := compactNode(store, 8)
	fillQueue(l, 20)
	l.commit = 15
	l.links[1] = &followerLink{}
	l.match[1] = 12
	l.match[2] = 3 // partitioned: no link, must not pin the floor

	n.compactLocked(l)
	if n.compactFloor != 12 {
		t.Fatalf("floor = %d, want 12 (min of commit 15 and live match 12)", n.compactFloor)
	}
	if l.baseIdx != 13 || len(l.queue) != 8 {
		t.Fatalf("queue = [%d, %d) len %d, want [13, 21) len 8", l.baseIdx, l.nextIdx, len(l.queue))
	}
	if store.persisted().CompactFloor != 12 {
		t.Fatalf("persisted floor = %d, want 12 (persist before prune)", store.persisted().CompactFloor)
	}
	// Idempotent: nothing new to prune, nothing saved again.
	saves := store.saves
	n.compactLocked(l)
	if store.saves != saves || n.compactFloor != 12 {
		t.Fatalf("no-op compact changed state: floor %d, saves %d → %d", n.compactFloor, saves, store.saves)
	}
}

// TestCompactLockedHardBound: when laggards keep the soft bound low, the
// retention cap prunes anyway — the queue never holds more than
// RetainRecords, and the laggard is left to the snapshot re-attach path.
func TestCompactLockedHardBound(t *testing.T) {
	store := newFailSink(false)
	n, l := compactNode(store, 8)
	fillQueue(l, 20)
	l.commit = 2
	l.links[1] = &followerLink{}
	l.match[1] = 2

	n.compactLocked(l)
	if n.compactFloor != 12 {
		t.Fatalf("floor = %d, want 12 (head 20 minus retention 8, soft bound 2 overridden)", n.compactFloor)
	}
	if qlen := l.nextIdx - l.baseIdx; qlen != 8 {
		t.Fatalf("queue holds %d records after hard-bound prune, want 8", qlen)
	}
}

// TestCompactLockedPersistFailureSkipsPrune: a floor the meta store did
// not acknowledge must not prune anything — the records stay until the
// next tick retries the persist.
func TestCompactLockedPersistFailureSkipsPrune(t *testing.T) {
	store := newFailSink(true)
	n, l := compactNode(store, 8)
	fillQueue(l, 20)
	l.commit = 15
	l.links[1] = &followerLink{}
	l.match[1] = 15

	n.compactLocked(l)
	if n.compactFloor != 0 || l.baseIdx != 1 || len(l.queue) != 20 {
		t.Fatalf("failed persist still pruned: floor %d, base %d, len %d", n.compactFloor, l.baseIdx, len(l.queue))
	}
	// The retry after the store heals picks up where it left off.
	store.fail = false
	n.compactLocked(l)
	if n.compactFloor != 15 || l.baseIdx != 16 {
		t.Fatalf("post-heal compact: floor %d base %d, want 15/16", n.compactFloor, l.baseIdx)
	}
}

// TestCompactLockedFoldsEmergencyDrops: the maxLeaderQueue front-drop
// discards records before the floor records them; the next compact folds
// the discarded prefix into the durable floor.
func TestCompactLockedFoldsEmergencyDrops(t *testing.T) {
	store := newFailSink(false)
	n, l := compactNode(store, 8)
	l.baseIdx, l.nextIdx = 10, 10 // records 1..9 were front-dropped
	fillQueue(l, 12)

	n.compactLocked(l)
	if n.compactFloor != 9 {
		t.Fatalf("floor = %d, want 9 (folding the front-dropped prefix)", n.compactFloor)
	}
	if l.baseIdx != 10 || len(l.queue) != 3 {
		t.Fatalf("fold-in pruned live records: base %d len %d", l.baseIdx, len(l.queue))
	}
}

// queueState reads the leader's queue bounds and floor under the lock.
func queueState(t *testing.T, n *Node) (qlen, floor uint64) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ldr == nil {
		t.Fatal("node is not leading")
	}
	return n.ldr.nextIdx - n.ldr.baseIdx, n.compactFloor
}

// TestCompactionBoundsQueueUnderPartition: the end-to-end retention
// property. With a follower partitioned for more than two snapshot
// cycles, the leader's replication queue stays within the retention
// bound (the healthy follower keeps the soft prune moving, the cap
// handles the rest), the floor only advances, and the healed laggard
// re-attaches through the snapshot+tail path to a byte-identical
// replica.
func TestCompactionBoundsQueueUnderPartition(t *testing.T) {
	const retain = 16
	fc := startFaultCluster(t, 3, func(cfg *Config) { cfg.RetainRecords = retain })
	c := fc.cluster
	if !c.nodes[0].Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}
	nextClient := uint64(1)
	churn := func(epochs int) {
		t.Helper()
		for e := 0; e < epochs; e++ {
			for k := 0; k < 2; k++ {
				if _, err := c.svcs[0].Acquire(nextClient, nil); err != nil {
					t.Fatalf("acquire %d: %v", nextClient, err)
				}
				nextClient++
			}
			closeEpochs(t, c, 0)
		}
	}

	churn(2)
	c.waitConverged(0)
	c.assertReplicasMatch()

	fc.mesh.Partition(2, false)
	// 17 epochs seal 2 records per epoch close per shard pair — far past
	// both the retention bound and two snapshot cycles (SnapshotEvery 8).
	churn(17)

	behind := c.svcs[2].Positions(nil)
	ahead := c.svcs[0].Positions(nil)
	for shard, pos := range ahead {
		if pos < behind[shard]+16 {
			t.Fatalf("shard %d: leader at %d, follower at %d — partition did not span 2 snapshot cycles",
				shard, pos, behind[shard])
		}
	}

	// Compaction runs on the leader tick, asynchronously to the writes;
	// wait for a tick to drain the queue and advance the floor, then
	// hold both to their bounds.
	deadline := time.Now().Add(5 * time.Second)
	var qlen, floor uint64
	for {
		qlen, floor = queueState(t, c.nodes[0])
		if qlen <= retain && floor > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the partition window: queue %d (want ≤ %d), floor %d (want > 0)",
				qlen, retain, floor)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// More churn: the floor is monotone and the bound holds steady once
	// the tick catches up with the burst.
	churn(3)
	for {
		qlen2, floor2 := queueState(t, c.nodes[0])
		if floor2 < floor {
			t.Fatalf("compaction floor moved backward: %d → %d", floor, floor2)
		}
		floor = floor2
		if qlen2 <= retain {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader queue stuck at %d records past the retention bound %d", qlen2, retain)
		}
		time.Sleep(10 * time.Millisecond)
	}

	fc.mesh.Heal(2)
	churn(1)
	c.waitConverged(0)
	c.assertReplicasMatch()
}

// TestCompactionFloorSurvivesReLeadership: record indices of a node's
// next leadership resume above its persisted floor, so the floor stays
// monotone across terms and a pruned record index is never reissued.
func TestCompactionFloorSurvivesReLeadership(t *testing.T) {
	c := startCluster(t, 3)
	if !c.nodes[0].Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}
	for client := uint64(1); client <= 8; client++ {
		if _, err := c.svcs[0].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d: %v", client, err)
		}
	}
	closeEpochs(t, c, 0)
	c.waitConverged(0)

	// With everyone converged the soft prune tracks the commit index;
	// wait for the floor to move off zero.
	deadline := time.Now().Add(5 * time.Second)
	var floor uint64
	for {
		_, floor = queueState(t, c.nodes[0])
		if floor > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("floor never advanced on a converged cluster")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Fence the leadership with an observed higher term, then win it back.
	c.nodes[0].observeTerm(6)
	if c.nodes[0].IsLeader() {
		t.Fatal("leader survived a higher observed term")
	}
	won := false
	for i := 0; i < 100 && !won; i++ {
		won = c.nodes[0].Campaign()
		if !won {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !won {
		t.Fatal("node 0 failed to retake leadership")
	}

	c.nodes[0].mu.Lock()
	base, next, newFloor := c.nodes[0].ldr.baseIdx, c.nodes[0].ldr.nextIdx, c.nodes[0].compactFloor
	c.nodes[0].mu.Unlock()
	if newFloor < floor {
		t.Fatalf("floor moved backward across leaderships: %d → %d", floor, newFloor)
	}
	if base != newFloor+1 || next != newFloor+1 {
		t.Fatalf("new leadership indexes from [%d, %d), want resume at floor+1 = %d", base, next, newFloor+1)
	}

	// The resumed stream still commits and converges byte-identically.
	for client := uint64(101); client <= 108; client++ {
		if _, err := c.svcs[0].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d after re-election: %v", client, err)
		}
	}
	closeEpochs(t, c, 0)
	c.waitConverged(0)
	c.assertReplicasMatch()
}
