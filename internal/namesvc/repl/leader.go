package repl

import (
	"fmt"
	"slices"
	"time"

	"ballsintoleaves/internal/transport"
	"ballsintoleaves/internal/wire"
)

// queuedRecord is one sealed record awaiting streaming, owned by the
// leader (the payload is copied out of the service's encode scratch).
type queuedRecord struct {
	shard   int
	payload []byte
}

// leaderState is one term's leadership: the stream of records produced
// under it, indexed from 1, and the acknowledgement state that decides
// commits. Guarded by Node.mu.
type leaderState struct {
	term   uint64
	fenced bool
	stopc  chan struct{} // closed on fencing; wakes every stream manager

	// queue holds records [baseIdx, nextIdx); entries beyond
	// maxLeaderQueue drop from the front, forcing laggards into a
	// snapshot re-attach instead of an unbounded backlog.
	queue          []queuedRecord
	baseIdx        uint64 // stream index of queue[0]
	nextIdx        uint64 // index the next record will take
	lastIdxByShard []uint64

	commit uint64         // highest quorum-acknowledged index
	match  map[int]uint64 // peer -> highest acknowledged index, this term
	links  map[int]*followerLink

	// heard[id] is when peer id was last heard from (hello ack or stream
	// ack) this leadership — the check-quorum / read-lease freshness
	// source. Seeded to the election instant as grace.
	heard []time.Time
}

// followerLink is one live leader→follower stream. sentIdx advances as
// the sender drains the queue; notify (capacity 1) wakes it.
type followerLink struct {
	peer    *transport.Peer
	sentIdx uint64
	notify  chan struct{}
}

func (lk *followerLink) wake() {
	select {
	case lk.notify <- struct{}{}:
	default:
	}
}

// recordHook observes every sealed WAL record the service produces. It
// runs under the shard lock (shard locks order before Node.mu, so taking
// n.mu here is safe — and nothing under n.mu may ever take a shard
// lock). On the leader it assigns the record the next stream index and
// queues it for every follower; anywhere else — follower, deposed, no
// leadership yet — the record is dropped: replication, not this tap,
// feeds follower state, and records a deposed leader produces during its
// teardown are divergent tail by definition, overwritten at re-attach.
func (n *Node) recordHook(shard int, payload []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	l := n.ldr
	if l == nil || l.fenced {
		return
	}
	idx := l.nextIdx
	l.nextIdx++
	l.lastIdxByShard[shard] = idx
	if len(l.queue) >= maxLeaderQueue {
		nq := copy(l.queue, l.queue[1:])
		l.queue[nq] = queuedRecord{}
		l.queue = l.queue[:nq]
		l.baseIdx++
	}
	l.queue = append(l.queue, queuedRecord{shard: shard, payload: append([]byte(nil), payload...)})
	l.advanceCommitLocked(n)
	for _, lk := range l.links {
		lk.wake()
	}
}

// advanceCommitLocked recomputes the commit index: the quorum-th highest
// of {this node's last produced index} ∪ {every peer's acknowledged
// index}. Monotone — a quorum that acknowledged an index never
// un-acknowledges it. Node.mu must be held.
func (l *leaderState) advanceCommitLocked(n *Node) {
	var idxs [16]uint64
	have := idxs[:0]
	have = append(have, l.nextIdx-1)
	for id := range n.cfg.Peers {
		if id != n.cfg.NodeID {
			have = append(have, l.match[id])
		}
	}
	// Insertion sort, descending; clusters are small.
	for i := 1; i < len(have); i++ {
		for j := i; j > 0 && have[j] > have[j-1]; j-- {
			have[j], have[j-1] = have[j-1], have[j]
		}
	}
	if c := have[n.quorum-1]; c > l.commit {
		l.commit = c
		n.commitCond.Broadcast()
	}
}

// runPeer keeps one follower attached for the duration of a term:
// dial, hello, catch-up, stream, and on any failure back off and
// re-attach from a fresh snapshot.
func (n *Node) runPeer(l *leaderState, peerID int) {
	defer n.wg.Done()
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-l.stopc:
			return
		case <-n.stop:
			return
		default:
		}
		start := time.Now()
		if err := n.attachFollower(l, peerID); err != nil {
			n.logf("repl: stream to node %d: %v", peerID, err)
		}
		if time.Since(start) > time.Second {
			backoff = 50 * time.Millisecond // the session worked; the failure is fresh
		}
		select {
		case <-l.stopc:
			return
		case <-n.stop:
			return
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, time.Second)
	}
}

// attachFollower runs one stream session to a peer. Catch-up ordering is
// what makes it correct: the attach index is captured under Node.mu
// FIRST, then the per-shard snapshots — so every record with index ≤
// attachIdx had already mutated its shard when the snapshot was taken
// and is covered by it, while records captured beyond attachIdx are
// streamed again and skipped by position on the follower. A follower
// whose position vector already equals the leader's skips the snapshots
// entirely and just acknowledges the attach index.
func (n *Node) attachFollower(l *leaderState, peerID int) error {
	p, err := transport.DialPeer(n.cfg.Peers[peerID].ReplAddr, n.cfg.ElectionTimeout)
	if err != nil {
		return err
	}
	defer p.Close()

	var w wire.Writer
	appendHello(&w, l.term, n.cfg.NodeID)
	if err := p.SendNow(w.Bytes(), time.Now().Add(replIOTimeout)); err != nil {
		return err
	}
	body, err := p.Recv(time.Now().Add(replIOTimeout))
	if err != nil {
		return err
	}
	if len(body) == 0 || body[0] != kHelloAck {
		return fmt.Errorf("unexpected hello reply")
	}
	ackTerm, _, theirPos, err := decodeHelloAck(body)
	if err != nil {
		return err
	}
	if ackTerm > l.term {
		n.observeTerm(ackTerm)
		return errDeposed
	}

	// Register the link and pin the attach point before touching any
	// shard (see the ordering argument above).
	n.mu.Lock()
	if l.fenced {
		n.mu.Unlock()
		return errDeposed
	}
	attachIdx := l.nextIdx - 1
	commit := l.commit
	lk := &followerLink{peer: p, sentIdx: attachIdx, notify: make(chan struct{}, 1)}
	l.links[peerID] = lk
	l.heard[peerID] = time.Now()
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		if l.links[peerID] == lk {
			delete(l.links, peerID)
		}
		n.mu.Unlock()
	}()

	myPos := n.svc.Positions(nil)
	if !slices.Equal(theirPos, myPos) {
		for shard := range myPos {
			payload := n.svc.ShardSnapshotPayload(shard)
			w.Reset()
			appendSnap(&w, l.term, shard, payload)
			if err := p.Send(w.Bytes(), time.Now().Add(replIOTimeout)); err != nil {
				return err
			}
		}
	}
	w.Reset()
	appendSnapEnd(&w, l.term, attachIdx, commit, l.term)
	if err := p.SendNow(w.Bytes(), time.Now().Add(replIOTimeout)); err != nil {
		return err
	}

	recvDone := make(chan error, 1)
	go func() { recvDone <- n.recvAcks(l, peerID, p) }()
	sendErr := n.streamRecords(l, lk, p)
	p.Close()
	recvErr := <-recvDone
	if sendErr != nil {
		return sendErr
	}
	return recvErr
}

// streamRecords is the sender half of one stream session: drain the
// queue from the link's cursor, heartbeat when idle, and bail out when
// the link's cursor falls off the bounded queue (the next attach
// resyncs from a snapshot).
func (n *Node) streamRecords(l *leaderState, lk *followerLink, p *transport.Peer) error {
	type outRecord struct {
		idx     uint64
		shard   int
		payload []byte
	}
	var batch []outRecord
	var w wire.Writer // frame-body scratch for the session; Send copies
	lastSend := time.Now()
	for {
		n.mu.Lock()
		if l.fenced {
			n.mu.Unlock()
			return errDeposed
		}
		if lk.sentIdx+1 < l.baseIdx {
			n.mu.Unlock()
			return fmt.Errorf("follower lags the queue (sent %d, queue from %d); re-attaching",
				lk.sentIdx, l.baseIdx)
		}
		batch = batch[:0]
		for i := lk.sentIdx + 1 - l.baseIdx; i < uint64(len(l.queue)); i++ {
			rec := l.queue[i]
			batch = append(batch, outRecord{idx: l.baseIdx + i, shard: rec.shard, payload: rec.payload})
		}
		if len(batch) > 0 {
			lk.sentIdx = batch[len(batch)-1].idx
		}
		term, commit := l.term, l.commit
		n.mu.Unlock()

		if len(batch) == 0 {
			if time.Since(lastSend) >= n.hbInterval {
				w.Reset()
				appendHeartbeat(&w, term, commit)
				if err := p.SendNow(w.Bytes(), time.Now().Add(replIOTimeout)); err != nil {
					return err
				}
				lastSend = time.Now()
			}
			select {
			case <-lk.notify:
			case <-time.After(n.hbInterval):
			case <-l.stopc:
				return errDeposed
			case <-n.stop:
				return errDeposed
			}
			continue
		}
		for _, rec := range batch {
			w.Reset()
			appendAppend(&w, term, rec.idx, commit, rec.shard, rec.payload)
			if err := p.Send(w.Bytes(), time.Now().Add(replIOTimeout)); err != nil {
				return err
			}
		}
		if err := p.Flush(time.Now().Add(replIOTimeout)); err != nil {
			return err
		}
		lastSend = time.Now()
	}
}

// recvAcks is the receiver half of one stream session: cumulative acks
// advance the peer's match index and possibly the commit; a nack (or a
// higher term) condemns the session.
func (n *Node) recvAcks(l *leaderState, peerID int, p *transport.Peer) error {
	idle := 2 * n.cfg.ElectionTimeout
	for {
		body, err := p.Recv(time.Now().Add(idle))
		if err != nil {
			return err
		}
		if len(body) == 0 {
			return fmt.Errorf("empty ack frame")
		}
		switch body[0] {
		case kAck:
			term, idx, err := decodeAck(body)
			if err != nil {
				return err
			}
			if term > l.term {
				n.observeTerm(term)
				return errDeposed
			}
			if term < l.term {
				continue
			}
			n.mu.Lock()
			l.heard[peerID] = time.Now()
			if idx > l.match[peerID] {
				l.match[peerID] = idx
				l.advanceCommitLocked(n)
			}
			n.mu.Unlock()
		case kNack:
			term, err := decodeNack(body)
			if err != nil {
				return err
			}
			n.mu.Lock()
			l.heard[peerID] = time.Now()
			n.mu.Unlock()
			if term > l.term {
				n.observeTerm(term)
				return errDeposed
			}
			return fmt.Errorf("follower rejected the stream; re-attaching with a snapshot")
		default:
			return fmt.Errorf("unexpected ack frame kind %#x", body[0])
		}
	}
}
