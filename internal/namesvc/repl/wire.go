// Package repl replicates a namesvc.Service across a small cluster of
// nodes so the namespace survives the loss of a minority of them.
//
// The unit of replication is the sealed WAL record namesvc's durability
// layer already produces: each record carries one epoch's (or release
// batch's) events plus the seal — epoch, digest, cumulative counters —
// that recovery re-proves on replay. The leader taps records at the
// source (Service.SetRecordHook), streams them to followers over
// internal/transport peer links, and a grant reaches a client only after
// a quorum of replicas has acknowledged the records behind it
// (Node.WaitCommitted, consulted by the Server's commit gate). Followers
// apply records through the same replay-and-prove path recovery uses
// (Service.ApplyReplicated), so every replica's ledger, digest, and
// journal are byte-identical to the leader's — the determinism the rest
// of the repository pins is what makes state-machine replication of the
// service exact rather than approximate.
//
// Leadership is elected, Raft-style: randomized election timeouts, one
// vote per term, and a freshness rule — (term of last record, total
// event position) compared lexicographically — that prevents a node
// missing quorum-committed records from winning. Terms fence deposed
// leaders: a leader that observes a higher term discards its in-flight
// epoch undelivered (no client ever saw those grants, so the new leader
// re-granting the same names is safe), disconnects its clients, and
// rejoins as a follower, its divergent tail overwritten by the new
// leader's catch-up snapshot. Clients follow RejectNotLeader hints
// (namesvc.Session) to wherever writes are currently served.
//
// Three hardening layers sit on top of the base protocol. Pre-vote: a
// candidate first runs a non-term-bumping poll and starts a real
// election only if a majority reports its leader stale, so a node
// returning from a partition with an inflated election appetite cannot
// depose a healthy leader; responders apply leader stickiness, refusing
// (pre-)votes while they hear a live leader within the election
// timeout. Check-quorum: a leader that cannot hear from a quorum of
// followers for an election timeout steps down on its own, fencing
// in-flight commits instead of lingering split-brained, and its reads
// (stats, journal) are lease-gated — served only while that quorum
// contact is fresh, which is what makes leader reads linearizable.
// Compaction: the leader's record backlog is pruned on a cadence
// independent of the shard snapshot cycle — the committed-and-applied-
// everywhere prefix goes first, and a hard retention bound caps the
// queue regardless; a follower that falls behind the retained window
// re-attaches through the ordinary snapshot+tail path. The compaction
// floor persists in repl-meta next to term and vote.
package repl

import (
	"fmt"

	"ballsintoleaves/internal/wire"
)

// Replication message kinds, first byte of every peer frame. A vote and a
// pre-vote are one poll on the wire, told apart only by kind, and each
// answer's kind is its request's plus one.
const (
	// kHello opens a leader→follower stream: {term, leaderID}.
	kHello byte = 0x61
	// kHelloAck answers a hello: {term, lastRecTerm, nPos, positions...}.
	kHelloAck byte = 0x62
	// kVoteReq asks for a vote: {term, candidateID, lastRecTerm, position}.
	kVoteReq byte = 0x63
	// kVoteResp answers a vote request: {term, granted}.
	kVoteResp byte = 0x64
	// kSnap carries one shard's catch-up snapshot: {term, shard, payload}.
	kSnap byte = 0x65
	// kSnapEnd closes a catch-up: {term, idx, commit, lastRecTerm}. The
	// follower acknowledges idx once every snapshot shard is restored.
	kSnapEnd byte = 0x66
	// kAppend streams one sealed record: {term, idx, commit, shard, payload}.
	kAppend byte = 0x67
	// kHeartbeat keeps an idle stream alive: {term, commit}.
	kHeartbeat byte = 0x68
	// kAck acknowledges the stream cumulatively: {term, idx}.
	kAck byte = 0x69
	// kNack reports an unrecoverable stream state (apply failure, stale
	// term): {term}. The leader tears the link down and re-attaches with a
	// fresh snapshot.
	kNack byte = 0x6a
	// kPreVoteReq polls for a non-binding vote before any term is bumped:
	// {term (the term the candidate would campaign at), candidateID,
	// lastRecTerm, position}. The responder neither adopts the term nor
	// spends its vote.
	kPreVoteReq byte = 0x6b
	// kPreVoteResp answers a pre-vote poll: {term (responder's current
	// term), granted}.
	kPreVoteResp byte = 0x6c
)

func appendHello(w *wire.Writer, term uint64, leaderID int) {
	w.Byte(kHello)
	w.Uvarint(term)
	w.Uvarint(uint64(leaderID))
}

func decodeHello(body []byte) (term uint64, leaderID int, err error) {
	r := wire.NewReader(body)
	r.Byte()
	term = r.Uvarint()
	leaderID = int(r.Uvarint())
	return term, leaderID, r.Close()
}

func appendHelloAck(w *wire.Writer, term, lastRecTerm uint64, positions []uint64) {
	w.Byte(kHelloAck)
	w.Uvarint(term)
	w.Uvarint(lastRecTerm)
	w.Uvarint(uint64(len(positions)))
	for _, p := range positions {
		w.Uvarint(p)
	}
}

func decodeHelloAck(body []byte) (term, lastRecTerm uint64, positions []uint64, err error) {
	r := wire.NewReader(body)
	r.Byte()
	term = r.Uvarint()
	lastRecTerm = r.Uvarint()
	n := r.Uvarint()
	if n > uint64(r.Remaining()) { // each position costs >= 1 byte
		return 0, 0, nil, fmt.Errorf("repl: hello-ack claims %d positions in %d bytes: %w",
			n, r.Remaining(), wire.ErrTruncated)
	}
	positions = make([]uint64, n)
	for i := range positions {
		positions[i] = r.Uvarint()
	}
	return term, lastRecTerm, positions, r.Close()
}

// appendPollReq encodes an election poll, a vote or a pre-vote request
// (kind kVoteReq or kPreVoteReq): {term, candidateID, lastRecTerm, position}.
func appendPollReq(w *wire.Writer, kind byte, term uint64, candidateID int, lastRecTerm, position uint64) {
	w.Byte(kind)
	w.Uvarint(term)
	w.Uvarint(uint64(candidateID))
	w.Uvarint(lastRecTerm)
	w.Uvarint(position)
}

func decodePollReq(body []byte) (term uint64, candidateID int, lastRecTerm, position uint64, err error) {
	r := wire.NewReader(body)
	r.Byte()
	term = r.Uvarint()
	candidateID = int(r.Uvarint())
	lastRecTerm = r.Uvarint()
	position = r.Uvarint()
	return term, candidateID, lastRecTerm, position, r.Close()
}

// appendPollResp encodes the answer to a poll (kind kVoteResp or
// kPreVoteResp): {term, granted}.
func appendPollResp(w *wire.Writer, kind byte, term uint64, granted bool) {
	w.Byte(kind)
	w.Uvarint(term)
	g := uint64(0)
	if granted {
		g = 1
	}
	w.Uvarint(g)
}

func decodePollResp(body []byte) (term uint64, granted bool, err error) {
	r := wire.NewReader(body)
	r.Byte()
	term = r.Uvarint()
	granted = r.Uvarint() == 1
	return term, granted, r.Close()
}

func appendSnap(w *wire.Writer, term uint64, shard int, payload []byte) {
	w.Byte(kSnap)
	w.Uvarint(term)
	w.Uvarint(uint64(shard))
	w.Raw(payload)
}

func decodeSnap(body []byte) (term uint64, shard int, payload []byte, err error) {
	r := wire.NewReader(body)
	r.Byte()
	term = r.Uvarint()
	shard = int(r.Uvarint())
	payload = r.Rest()
	return term, shard, payload, r.Close()
}

func appendSnapEnd(w *wire.Writer, term, idx, commit, lastRecTerm uint64) {
	w.Byte(kSnapEnd)
	w.Uvarint(term)
	w.Uvarint(idx)
	w.Uvarint(commit)
	w.Uvarint(lastRecTerm)
}

func decodeSnapEnd(body []byte) (term, idx, commit, lastRecTerm uint64, err error) {
	r := wire.NewReader(body)
	r.Byte()
	term = r.Uvarint()
	idx = r.Uvarint()
	commit = r.Uvarint()
	lastRecTerm = r.Uvarint()
	return term, idx, commit, lastRecTerm, r.Close()
}

func appendAppend(w *wire.Writer, term, idx, commit uint64, shard int, payload []byte) {
	w.Byte(kAppend)
	w.Uvarint(term)
	w.Uvarint(idx)
	w.Uvarint(commit)
	w.Uvarint(uint64(shard))
	w.Raw(payload)
}

func decodeAppend(body []byte) (term, idx, commit uint64, shard int, payload []byte, err error) {
	r := wire.NewReader(body)
	r.Byte()
	term = r.Uvarint()
	idx = r.Uvarint()
	commit = r.Uvarint()
	shard = int(r.Uvarint())
	payload = r.Rest()
	return term, idx, commit, shard, payload, r.Close()
}

func appendHeartbeat(w *wire.Writer, term, commit uint64) {
	w.Byte(kHeartbeat)
	w.Uvarint(term)
	w.Uvarint(commit)
}

func decodeHeartbeat(body []byte) (term, commit uint64, err error) {
	r := wire.NewReader(body)
	r.Byte()
	term = r.Uvarint()
	commit = r.Uvarint()
	return term, commit, r.Close()
}

func appendAck(w *wire.Writer, term, idx uint64) {
	w.Byte(kAck)
	w.Uvarint(term)
	w.Uvarint(idx)
}

func decodeAck(body []byte) (term, idx uint64, err error) {
	r := wire.NewReader(body)
	r.Byte()
	term = r.Uvarint()
	idx = r.Uvarint()
	return term, idx, r.Close()
}

func appendNack(w *wire.Writer, term uint64) {
	w.Byte(kNack)
	w.Uvarint(term)
}

func decodeNack(body []byte) (term uint64, err error) {
	r := wire.NewReader(body)
	r.Byte()
	term = r.Uvarint()
	return term, r.Close()
}
