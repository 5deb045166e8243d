package repl

import (
	"time"

	"ballsintoleaves/internal/transport"
	"ballsintoleaves/internal/wire"
)

// Pre-vote: before bumping its term, a candidate polls the cluster with
// the term it *would* campaign at — the same round as a real vote
// (Node.poll), sent as kPreVoteReq. Responders grant only if they would
// vote for it — same freshness rule as a real vote (freshLocked) — *and*
// they are not hearing a live leader. Nothing is persisted and no vote is
// spent on either side, so a node whose election timer fires spuriously
// (a healed flapping follower, a deafened node on a one-way partition)
// cannot push the cluster's term forward and depose a healthy leader: its
// poll simply fails and it keeps following.

// servePreVote answers a pre-vote poll without touching term, vote, or
// disk: grant only if the candidate's term would beat ours, we are not
// hearing a live leader (stickiness), and the candidate is at least as
// fresh as this replica.
func (n *Node) servePreVote(p *transport.Peer, body []byte) {
	reqTerm, _, candRecTerm, candPos, err := decodePollReq(body)
	if err != nil {
		return
	}
	// As in serveVote: position is read before n.mu (shard locks order
	// before the node lock).
	pos := n.svc.Position()
	n.mu.Lock()
	granted := reqTerm > n.term && !n.hearingLeaderLocked() && n.freshLocked(candRecTerm, candPos, pos)
	cur := n.term
	n.mu.Unlock()
	var w wire.Writer
	appendPollResp(&w, kPreVoteResp, cur, granted)
	p.SendNow(w.Bytes(), time.Now().Add(replIOTimeout))
}

// hearingLeaderLocked reports whether this node currently believes a
// live leader exists: it is one itself with a fresh check-quorum lease,
// or it heard from one within the election timeout. n.mu must be held.
func (n *Node) hearingLeaderLocked() bool {
	if l := n.ldr; l != nil && !l.fenced {
		return n.leaseFreshLocked(l)
	}
	return n.leaderID >= 0 && n.leaderID != n.cfg.NodeID &&
		time.Since(n.lastContact) < n.cfg.ElectionTimeout
}

// freshLocked is the election freshness rule, one for votes and pre-votes:
// the candidate's (last record term, position) is at least this replica's,
// compared lexicographically, where pos is this replica's position read
// before n.mu. n.mu must be held.
func (n *Node) freshLocked(candRecTerm, candPos, pos uint64) bool {
	return candRecTerm > n.lastRecTerm || (candRecTerm == n.lastRecTerm && candPos >= pos)
}
