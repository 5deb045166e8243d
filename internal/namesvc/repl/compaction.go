package repl

import (
	"fmt"
	"strings"
	"time"

	"ballsintoleaves/internal/namesvc"
)

// The leader tick runs two maintenance duties on the heartbeat cadence —
// deliberately independent of the per-shard snapshot cycle:
//
// Check-quorum: a leader that has not heard from a quorum of followers
// (counting itself) within one election timeout steps down on its own,
// fencing in-flight commits, instead of lingering split-brained on the
// minority side of a partition. The same freshness is the leader's read
// lease: stats/journal reads are served only while it holds, which is
// what makes leader reads linearizable — a deposed-but-unaware leader
// stops answering reads within one election timeout of losing its
// followers, before a new leader can have been elected elsewhere.
//
// Compaction: the committed-and-applied-everywhere prefix of the record
// queue is pruned continuously (bounded by the commit index and every
// live follower link's acknowledged index), and a hard retention bound
// caps the queue regardless of unreachable laggards, which re-attach
// through the ordinary snapshot+tail path on return. The floor persists
// in repl-meta *before* the prefix is dropped, so a recovered node can
// never claim records it discarded.

// leaderTick owns one leadership's periodic duties; it exits when the
// leader state is fenced or the node stops.
func (n *Node) leaderTick(l *leaderState) {
	defer n.wg.Done()
	t := time.NewTicker(n.hbInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stopc:
			return
		case <-n.stop:
			return
		case <-t.C:
		}
		n.mu.Lock()
		if l.fenced || n.closed {
			n.mu.Unlock()
			return
		}
		if !n.leaseFreshLocked(l) {
			ages := n.heardAgesLocked(l)
			n.electionReason = "check-quorum-stepdown: " + ages
			n.logf("repl: node %d stepping down: no quorum heard for %v (term %d): %s",
				n.cfg.NodeID, n.cfg.ElectionTimeout, l.term, ages)
			n.fenceLocked(l, true)
			n.mu.Unlock()
			return
		}
		n.compactLocked(l)
		n.mu.Unlock()
	}
}

// leaseFreshLocked reports whether a quorum of the cluster (including
// this leader) has been heard from within one election timeout. n.mu
// must be held and l must be n's leader state.
func (n *Node) leaseFreshLocked(l *leaderState) bool {
	fresh := 1 // self
	for id := range n.cfg.Peers {
		if id == n.cfg.NodeID {
			continue
		}
		if time.Since(l.heard[id]) < n.cfg.ElectionTimeout {
			fresh++
		}
	}
	return fresh >= n.quorum
}

// heardAgesLocked lists how long ago each peer was last heard from — what
// a check-quorum step-down needs said to be diagnosable: which follower
// went quiet, and whether it was one or all of them. n.mu must be held.
func (n *Node) heardAgesLocked(l *leaderState) string {
	var b strings.Builder
	for id := range n.cfg.Peers {
		if id == n.cfg.NodeID {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "peer %d heard %v ago", id, time.Since(l.heard[id]).Round(time.Millisecond))
	}
	return b.String()
}

// compactLocked advances the compaction floor and prunes the queue
// prefix behind it. The floor is monotone; it is persisted before any
// record is dropped, and a persist failure skips the prune (retried next
// tick) rather than discarding records the durable floor doesn't cover.
// n.mu must be held.
func (n *Node) compactLocked(l *leaderState) {
	// Committed and applied everywhere reachable: bounded by the commit
	// index and by each live follower link's acknowledged index.
	target := l.commit
	for id := range l.links {
		if m := l.match[id]; m < target {
			target = m
		}
	}
	// Hard retention bound: keep at most RetainRecords behind the head,
	// unreachable laggards notwithstanding (they re-attach via snapshot).
	retain := uint64(n.cfg.RetainRecords)
	if qlen := l.nextIdx - l.baseIdx; qlen > retain {
		if hard := l.nextIdx - 1 - retain; hard > target {
			target = hard
		}
	}
	// Emergency front-drops (maxLeaderQueue) may already have discarded a
	// prefix the floor doesn't record yet; fold them in.
	if l.baseIdx > 0 && target < l.baseIdx-1 {
		target = l.baseIdx - 1
	}
	if target <= n.compactFloor {
		return
	}
	old := n.compactFloor
	n.compactFloor = target
	if n.persistMetaLocked() != nil {
		n.compactFloor = old
		return
	}
	if drop := int(target + 1 - l.baseIdx); drop > 0 {
		nq := copy(l.queue, l.queue[drop:])
		for i := nq; i < len(l.queue); i++ {
			l.queue[i] = queuedRecord{}
		}
		l.queue = l.queue[:nq]
		l.baseIdx = target + 1
	}
}

// ReadLeaseValid implements namesvc.ReplGate: a leader answers
// stats/journal reads only while its check-quorum lease is fresh.
// Followers always serve (their reads are locally consistent, not
// linearizable — clients wanting linearizable reads use the leader).
func (n *Node) ReadLeaseValid() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.ldr
	if l == nil {
		return true
	}
	return n.leaseFreshLocked(l)
}

// WireReplStats implements namesvc.ReplGate: the node's term, role, the
// reason for its last term/role change, and the compaction floor — what
// chaos checkers assert term stability against instead of grepping logs.
func (n *Node) WireReplStats() (term uint64, role namesvc.Role, reason string, compactFloor uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	role = namesvc.RoleFollower
	if n.ldr != nil {
		role = namesvc.RoleLeader
	}
	return n.term, role, n.electionReason, n.compactFloor
}
