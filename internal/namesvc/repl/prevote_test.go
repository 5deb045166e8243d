package repl

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ballsintoleaves/internal/namesvc"
)

// TestPreVoteProtectsHealthyLeader: the stability half of pre-vote. A
// follower of a healthy, committing leader campaigns spuriously — its
// pre-vote poll must fail against peers that still hear the leader, the
// cluster term must not move, and the leader must keep serving as if
// nothing happened.
func TestPreVoteProtectsHealthyLeader(t *testing.T) {
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

	// The spurious campaign: node 1 is as fresh as the leader, so only
	// stickiness — peers still hearing the leader — can (and must) stop it.
	for round := 0; round < 3; round++ {
		if c.nodes[1].Campaign() {
			t.Fatal("a campaign deposed a healthy leader despite pre-vote")
		}
	}
	if !c.nodes[0].IsLeader() {
		t.Fatal("leader lost leadership to a failed campaign")
	}
	for i, n := range c.nodes {
		if _, term, _ := n.Status(); term != 1 {
			t.Fatalf("node %d at term %d after failed campaigns, want 1 (no term churn)", i, term)
		}
	}
	if term, role, reason, _ := c.nodes[0].WireReplStats(); term != 1 || role != namesvc.RoleLeader || reason != "won-election" {
		t.Fatalf("leader stats = (%d, %v, %q), want (1, leader, won-election)", term, role, reason)
	}

	// The leader still commits: the failed campaigns were invisible.
	for client := uint64(101); client <= 104; client++ {
		if _, err := c.svcs[0].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d after failed campaigns: %v", client, err)
		}
	}
	closeEpochs(t, c, 0)
	c.waitConverged(0)
	c.assertReplicasMatch()
}

// TestStickinessRefusesVoteWithoutAdoptingTerm: the precise stickiness
// contract. A vote request at a wildly higher term, from a candidate
// claiming perfect freshness, reaches a follower that hears a live
// leader: the vote is refused AND the term is not adopted — the inflated
// term must not infect the cluster and force the leader out.
func TestStickinessRefusesVoteWithoutAdoptingTerm(t *testing.T) {
	c := startCluster(t, 3)
	if !c.nodes[0].Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}
	for client := uint64(1); client <= 4; client++ {
		if _, err := c.svcs[0].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d: %v", client, err)
		}
	}
	closeEpochs(t, c, 0)
	c.waitConverged(0)

	// Freshness is maximal (record term 99 beats anything real), so a
	// rejection can only be stickiness.
	for _, kind := range []byte{kVoteReq, kPreVoteReq} {
		if _, granted := c.nodes[1].requestPoll(kind, c.peers[2].ReplAddr, 99, 99, 1<<30); granted {
			t.Fatalf("follower hearing a live leader granted a higher-term poll of kind %#x", kind)
		}
		if _, term, _ := c.nodes[2].Status(); term != 1 {
			t.Fatalf("follower adopted term %d from a refused poll of kind %#x, want 1", term, kind)
		}
	}
	if !c.nodes[0].IsLeader() {
		t.Fatal("leader deposed by refused vote traffic")
	}
}

// TestPreVoteYieldsToResponderAtPolledTerm: a pre-vote polls at the term
// the candidate would campaign at, so a responder already at that term is
// ahead of it. The round fails and the candidate adopts the term; its next
// campaign, polling above every peer, wins.
func TestPreVoteYieldsToResponderAtPolledTerm(t *testing.T) {
	c := startCluster(t, 3)
	c.nodes[1].observeTerm(1)
	c.nodes[2].observeTerm(1)
	if c.nodes[0].Campaign() {
		t.Fatal("node 0 won an election whose pre-vote every peer refused")
	}
	if _, term, _ := c.nodes[0].Status(); term != 1 {
		t.Fatalf("candidate at term %d after pre-vote responders at its polled term 1, want 1", term)
	}
	if !c.nodes[0].Campaign() {
		t.Fatal("node 0 lost the campaign after catching up to the cluster term")
	}
}

// TestElectionProceedsAfterLeaderDeath: the liveness half of pre-vote.
// Stickiness delays an election only while leader contact is fresh; once
// the leader dies and the timeout lapses, a campaign collects pre-votes
// and real votes and the survivors commit again.
func TestElectionProceedsAfterLeaderDeath(t *testing.T) {
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

	c.nodes[0].Close()
	c.svcs[0].Close()
	c.nodes[0], c.svcs[0] = nil, nil

	// Stickiness rejects the first polls; the retry loop models the
	// election timer firing again after contact lapses.
	won := false
	for i := 0; i < 100 && !won; i++ {
		won = c.nodes[1].Campaign()
		if !won {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !won {
		t.Fatal("survivor failed to take leadership after the leader died")
	}
	if term, role, reason, _ := c.nodes[1].WireReplStats(); role != namesvc.RoleLeader || reason != "won-election" || term != 2 {
		t.Fatalf("new leader stats = (%d, %v, %q), want (2, leader, won-election)", term, role, reason)
	}
	for client := uint64(101); client <= 108; client++ {
		if _, err := c.svcs[1].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d on new leader: %v", client, err)
		}
	}
	closeEpochs(t, c, 1)
	c.waitConverged(1)
	c.assertReplicasMatch()
}

// TestCheckQuorumStepsDownIsolatedLeader: a leader whose followers all
// die steps down on its own within a few election timeouts — without any
// higher term ever reaching it — and records why.
func TestCheckQuorumStepsDownIsolatedLeader(t *testing.T) {
	c := startCluster(t, 3)
	if !c.nodes[0].Campaign() {
		t.Fatal("node 0 failed to take leadership")
	}
	for client := uint64(1); client <= 4; client++ {
		if _, err := c.svcs[0].Acquire(client, nil); err != nil {
			t.Fatalf("acquire %d: %v", client, err)
		}
	}
	closeEpochs(t, c, 0)
	c.waitConverged(0)

	for i := 1; i <= 2; i++ {
		c.nodes[i].Close()
		c.svcs[i].Close()
		c.nodes[i], c.svcs[i] = nil, nil
	}

	deadline := time.Now().Add(15 * time.Second)
	for c.nodes[0].IsLeader() {
		if time.Now().After(deadline) {
			t.Fatal("isolated leader never stepped down via check-quorum")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if admit, _ := c.nodes[0].AdmitWrites(); admit {
		t.Fatal("stepped-down leader still admits writes")
	}
	// The reason (the step-down log line carries the same text) says when
	// each peer was last heard from, so a leaderless ending explains itself.
	_, _, reason, _ := c.nodes[0].WireReplStats()
	if !strings.HasPrefix(reason, "check-quorum-stepdown: ") {
		t.Fatalf("election reason = %q, want check-quorum-stepdown: ...", reason)
	}
	for peer := 1; peer <= 2; peer++ {
		if !strings.Contains(reason, fmt.Sprintf("peer %d heard ", peer)) {
			t.Fatalf("election reason %q does not say when peer %d was last heard", reason, peer)
		}
	}
	if strings.Contains(reason, "peer 0 ") {
		t.Fatalf("election reason %q lists the leader itself", reason)
	}
	// The term did not move: nothing deposed it, it deposed itself.
	if _, term, _ := c.nodes[0].Status(); term != 1 {
		t.Fatalf("stepped-down leader at term %d, want 1", term)
	}
}

// TestReadLeaseFreshness pins the lease arithmetic itself — deterministic
// clock offsets instead of racing the leader tick. The same freshness
// that triggers the check-quorum step-down gates leader reads.
func TestReadLeaseFreshness(t *testing.T) {
	peers := []PeerSpec{{ReplAddr: "a"}, {ReplAddr: "b"}, {ReplAddr: "c"}}
	n := &Node{
		cfg:    Config{NodeID: 0, Peers: peers, ElectionTimeout: 200 * time.Millisecond},
		quorum: 2,
	}
	l := &leaderState{heard: make([]time.Time, 3)}
	now := time.Now()
	stale := now.Add(-time.Second)

	cases := []struct {
		name   string
		heard1 time.Time
		heard2 time.Time
		fresh  bool
	}{
		{"both fresh", now, now, true},
		{"one fresh keeps quorum with self", now, stale, true},
		{"both stale loses the lease", stale, stale, false},
	}
	for _, tc := range cases {
		l.heard[1], l.heard[2] = tc.heard1, tc.heard2
		if got := n.leaseFreshLocked(l); got != tc.fresh {
			t.Errorf("%s: leaseFreshLocked = %v, want %v", tc.name, got, tc.fresh)
		}
		n.ldr = l
		if got := n.ReadLeaseValid(); got != tc.fresh {
			t.Errorf("%s: ReadLeaseValid = %v, want %v", tc.name, got, tc.fresh)
		}
		n.ldr = nil
	}

	// Not leading: reads are served (locally consistent follower reads).
	if !n.ReadLeaseValid() {
		t.Error("follower ReadLeaseValid = false, want true")
	}
}
