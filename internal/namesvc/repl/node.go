package repl

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/namesvc/durable"
	"ballsintoleaves/internal/transport"
	"ballsintoleaves/internal/wire"
)

// replIOTimeout bounds handshake reads and every stream write; a peer
// that cannot accept a frame for this long is treated as gone.
const replIOTimeout = 5 * time.Second

// maxLeaderQueue bounds the leader's in-memory record queue. A follower
// that falls further behind than this is torn down and re-attached from
// a snapshot instead of being streamed an unbounded backlog.
const maxLeaderQueue = 4096

// defaultRetainRecords is the default compaction retention: how many
// records the leader keeps behind its head for laggard followers before
// pruning forces them onto the snapshot+tail re-attach path.
const defaultRetainRecords = 1024

// errDeposed reports that the node stopped being leader with work in
// flight; the staged grants behind it are discarded undelivered.
var errDeposed = errors.New("repl: node is no longer leader")

// PeerSpec names one cluster member.
type PeerSpec struct {
	// ReplAddr is the member's replication listener (peer traffic).
	ReplAddr string
	// ClientAddr is the member's client-facing server address — the
	// redirect hint handed to clients that reach a non-leader.
	ClientAddr string
}

// Config parameterizes a Node.
type Config struct {
	// NodeID indexes this node in Peers. Required (and Peers[NodeID]
	// must be this node's own addresses).
	NodeID int
	// Peers lists every cluster member, including this node, in a fixed
	// order shared by all members. Quorum is len(Peers)/2 + 1.
	Peers []PeerSpec
	// Service is the replicated allocation core. Required. The node
	// installs its record hook; install nothing else on it.
	Service *namesvc.Service
	// Listener, when non-nil, is the pre-bound replication listener
	// (tests use port 0); nil means listen on Peers[NodeID].ReplAddr.
	Listener net.Listener
	// MetaPath persists term/vote/freshness/compaction state across
	// restarts (required for crash safety) in the slots MetaPath.a and
	// MetaPath.b, reading a legacy single file at MetaPath too; empty keeps
	// it in memory only (tests), unless MetaSink is set.
	MetaPath string
	// MetaSink, when non-nil, holds the same slots inside a durable.Sink
	// instead of MetaPath's directory. Tests and crash harnesses use it.
	MetaSink durable.Sink
	// ElectionTimeout is the follower patience before campaigning;
	// heartbeats flow at a fifth of it. Zero means 500ms.
	ElectionTimeout time.Duration
	// ManualElections disables the election timer: leadership changes
	// only through explicit Campaign calls. Deterministic tests only.
	ManualElections bool
	// RetainRecords bounds the leader's replication queue: committed-and-
	// applied-everywhere prefixes are pruned continuously, and the queue
	// never retains more than this many records regardless of laggards
	// (which re-attach via snapshot+tail). Zero means 1024.
	RetainRecords int
	// Logf, when non-nil, receives role transitions and stream errors.
	Logf func(format string, args ...any)
}

// Node is one replication participant. It implements namesvc.CommitGate
// and its ReplGate extension, so wiring it as the Server's Gate is what
// turns a standalone daemon into a cluster member: writes are admitted
// only on the leader, and grants are delivered only after a quorum of
// replicas holds the records behind them.
type Node struct {
	cfg        Config
	svc        *namesvc.Service
	ln         net.Listener
	quorum     int
	hbInterval time.Duration
	meta       sinkMeta

	mu             sync.Mutex
	commitCond     *sync.Cond // commit advance, fencing, close
	term           uint64
	votedFor       int
	lastRecTerm    uint64
	leaderID       int // last known leader; -1 unknown
	lastContact    time.Time
	ldr            *leaderState // non-nil while this node leads
	seenCommit     uint64       // highest commit observed as a follower
	metaSeq        uint64       // persisted-write sequence number
	compactFloor   uint64       // highest pruned replication-log index
	electionReason string       // why the node last changed term or role
	srv            *namesvc.Server
	streams        map[*transport.Peer]struct{} // live accepted peer links
	closed         bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// Start loads the persisted election state, binds the replication
// listener, installs the record hook, and begins following. Call
// SetServer before the Service takes traffic, then wire the node as the
// Server's Gate.
func Start(cfg Config) (*Node, error) {
	if cfg.Service == nil {
		return nil, fmt.Errorf("repl: Config.Service is required")
	}
	if cfg.NodeID < 0 || cfg.NodeID >= len(cfg.Peers) {
		return nil, fmt.Errorf("repl: NodeID %d outside 0..%d", cfg.NodeID, len(cfg.Peers)-1)
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 500 * time.Millisecond
	}
	if cfg.RetainRecords <= 0 {
		cfg.RetainRecords = defaultRetainRecords
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	var store sinkMeta
	switch {
	case cfg.MetaSink != nil:
		store = sinkMeta{sink: cfg.MetaSink, base: metaBase}
	case cfg.MetaPath != "":
		dir, err := durable.NewDirSink(filepath.Dir(cfg.MetaPath))
		if err != nil {
			return nil, fmt.Errorf("repl: %w", err)
		}
		store = sinkMeta{sink: dir, base: filepath.Base(cfg.MetaPath)}
	default:
		store = sinkMeta{sink: durable.NewMemSink(), base: metaBase}
	}
	m, err := store.load()
	if err != nil {
		return nil, err
	}
	ln := cfg.Listener
	if ln == nil {
		ln, err = net.Listen("tcp", cfg.Peers[cfg.NodeID].ReplAddr)
		if err != nil {
			return nil, fmt.Errorf("repl: %w", err)
		}
	}
	n := &Node{
		cfg:            cfg,
		svc:            cfg.Service,
		ln:             ln,
		quorum:         len(cfg.Peers)/2 + 1,
		hbInterval:     cfg.ElectionTimeout / 5,
		meta:           store,
		term:           m.Term,
		votedFor:       m.VotedFor,
		lastRecTerm:    m.LastRecTerm,
		metaSeq:        m.Seq,
		compactFloor:   m.CompactFloor,
		electionReason: "boot",
		leaderID:       -1,
		lastContact:    time.Now(),
		streams:        make(map[*transport.Peer]struct{}),
		stop:           make(chan struct{}),
	}
	n.commitCond = sync.NewCond(&n.mu)
	n.svc.SetRecordHook(n.recordHook)
	n.wg.Add(1)
	go n.acceptLoop()
	if !cfg.ManualElections {
		n.wg.Add(1)
		go n.electionLoop()
	}
	return n, nil
}

// SetServer hands the node the client-facing server it quiesces on
// deposition (DisconnectAll cancels the queued writes that would block a
// catch-up restore). Call it once, before traffic.
func (n *Node) SetServer(srv *namesvc.Server) {
	n.mu.Lock()
	n.srv = srv
	n.mu.Unlock()
}

// Close stops the node: listener, election timer, streams, leadership.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	if l := n.ldr; l != nil {
		n.fenceLocked(l, false)
	}
	for p := range n.streams {
		p.Close()
	}
	n.commitCond.Broadcast()
	n.mu.Unlock()
	close(n.stop)
	n.ln.Close()
	n.wg.Wait()
	return nil
}

func (n *Node) logf(format string, args ...any) { n.cfg.Logf(format, args...) }

// persistMetaLocked writes the durable election state; n.mu must be held.
func (n *Node) persistMetaLocked() error {
	next := n.metaSeq + 1
	err := n.meta.save(meta{
		Seq:          next,
		Term:         n.term,
		VotedFor:     n.votedFor,
		LastRecTerm:  n.lastRecTerm,
		CompactFloor: n.compactFloor,
	})
	if err != nil {
		n.logf("repl: persisting election state: %v", err)
		return err
	}
	n.metaSeq = next
	return nil
}

// stepToTermLocked adopts a higher term observed on any path, fencing
// current leadership; n.mu must be held.
func (n *Node) stepToTermLocked(term uint64) {
	if term <= n.term {
		return
	}
	n.term = term
	n.votedFor = -1
	n.electionReason = "saw-higher-term"
	n.persistMetaLocked()
	if l := n.ldr; l != nil {
		n.fenceLocked(l, true)
	}
}

// fenceLocked ends this node's leadership: commit waiters fail (their
// staged grants are discarded undelivered — no client observed them, so
// the new leader may re-grant the same names), the record hook starts
// dropping, follower links die, and — when quiesce is set — the client
// server is disconnected so teardown cancels every queued write, letting
// the new leader's catch-up snapshot restore over a quiet service.
// n.mu must be held.
func (n *Node) fenceLocked(l *leaderState, quiesce bool) {
	if l.fenced {
		return
	}
	l.fenced = true
	close(l.stopc)
	for _, lk := range l.links {
		lk.peer.Close()
	}
	n.ldr = nil
	n.commitCond.Broadcast()
	n.logf("repl: node %d deposed as leader of term %d (commit %d)", n.cfg.NodeID, l.term, l.commit)
	if quiesce && n.srv != nil {
		srv := n.srv
		go srv.DisconnectAll()
	}
}

// observeTerm adopts a possibly-higher term observed outside n.mu.
func (n *Node) observeTerm(term uint64) {
	n.mu.Lock()
	n.stepToTermLocked(term)
	n.mu.Unlock()
}

// setLastRecTermLocked raises the freshness claim, persisting on change;
// n.mu must be held. It is called before the acknowledgement (or grant)
// that depends on it, so the durable claim never lags what was promised.
func (n *Node) setLastRecTermLocked(term uint64) {
	if term <= n.lastRecTerm {
		return
	}
	n.lastRecTerm = term
	n.persistMetaLocked()
}

// leaderHintLocked is the client address writes should be redirected to.
func (n *Node) leaderHintLocked() string {
	if n.leaderID < 0 || n.leaderID >= len(n.cfg.Peers) || n.leaderID == n.cfg.NodeID {
		return ""
	}
	return n.cfg.Peers[n.leaderID].ClientAddr
}

// AdmitWrites implements namesvc.CommitGate: only an unfenced leader
// serves writes; everyone else redirects to the last known leader.
func (n *Node) AdmitWrites() (bool, string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ldr != nil {
		return true, ""
	}
	return false, n.leaderHintLocked()
}

// WaitCommitted implements namesvc.CommitGate: it blocks until every
// record the shard had produced when it was called is quorum-acknowledged.
// The target index is captured once, on entry: the shard's epoch loop keeps
// producing records while its deliverer waits here, and a wait that chased
// the shard's *latest* index would never end under steady load. The
// leader's own copy is made durable first (the shard's group-commit flush
// under FsyncGroup; at once when every append already syncs), so
// "committed" always means a quorum of durable copies including this one.
// An error means the node was deposed with the records uncommitted, or the
// shard's own copy failed (the failure policy in namesvc's durability.go).
func (n *Node) WaitCommitted(shard int) error {
	n.mu.Lock()
	l := n.ldr
	if n.closed || l == nil {
		n.mu.Unlock()
		return errDeposed
	}
	target := l.lastIdxByShard[shard]
	n.mu.Unlock()
	// A record takes its index under the shard lock, after its append, so
	// a flush that starts now covers every record up to target.
	if err := n.svc.SyncShard(shard); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		if n.closed || n.ldr != l {
			return errDeposed
		}
		if target <= l.commit {
			return nil
		}
		n.commitCond.Wait()
	}
}

// WireRole implements namesvc.ReplGate: what the welcome message tells
// connecting clients.
func (n *Node) WireRole() (namesvc.Role, string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ldr != nil {
		return namesvc.RoleLeader, n.cfg.Peers[n.cfg.NodeID].ClientAddr
	}
	return namesvc.RoleFollower, n.leaderHintLocked()
}

// Status reports the node's replication state for logging: its role, the
// current term, and the highest committed stream index it knows of.
func (n *Node) Status() (role namesvc.Role, term, commit uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if l := n.ldr; l != nil {
		return namesvc.RoleLeader, n.term, l.commit
	}
	return namesvc.RoleFollower, n.term, n.seenCommit
}

// IsLeader reports whether this node currently serves writes. Epoch
// drivers use it to keep follower epochs closed only by replication.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ldr != nil
}

// electionLoop campaigns whenever leader contact lapses. The check
// period and the patience are both randomized around ElectionTimeout so
// two followers rarely split the vote twice in a row.
func (n *Node) electionLoop() {
	defer n.wg.Done()
	for {
		patience := n.cfg.ElectionTimeout + time.Duration(rand.Int63n(int64(n.cfg.ElectionTimeout)))
		select {
		case <-n.stop:
			return
		case <-time.After(patience):
		}
		n.mu.Lock()
		stale := !n.closed && n.ldr == nil && time.Since(n.lastContact) >= n.cfg.ElectionTimeout
		n.mu.Unlock()
		if stale {
			n.Campaign()
		}
	}
}

// Campaign runs one election round synchronously: a non-term-bumping
// pre-vote poll first, then term+1, vote for self, poll every peer for its
// vote, and take leadership on a quorum.
// It reports whether this node leads the new term. Safe to call at any
// time; the election timer calls it automatically unless disabled.
func (n *Node) Campaign() bool {
	n.mu.Lock()
	if n.closed || n.ldr != nil {
		won := n.ldr != nil
		n.mu.Unlock()
		return won
	}
	nextTerm := n.term + 1
	recTerm := n.lastRecTerm
	n.mu.Unlock()
	if !n.poll(kPreVoteReq, nextTerm, recTerm, n.svc.Position()) {
		return false
	}
	n.mu.Lock()
	if n.closed || n.ldr != nil {
		won := n.ldr != nil
		n.mu.Unlock()
		return won
	}
	n.term++
	n.votedFor = n.cfg.NodeID
	if n.persistMetaLocked() != nil {
		n.mu.Unlock()
		return false
	}
	term := n.term
	lastRecTerm := n.lastRecTerm
	n.mu.Unlock()
	if !n.poll(kVoteReq, term, lastRecTerm, n.svc.Position()) {
		return false
	}
	return n.becomeLeader(term)
}

// poll runs one election round at term — a pre-vote (kind kPreVoteReq) or
// a vote (kVoteReq) — asking every peer at once, and reports whether a
// quorum, this node included, granted within the election timeout. A
// response from a later term is adopted and fails the round; for a
// pre-vote that includes a responder already at the polled term, which
// the candidate has not reached yet.
func (n *Node) poll(kind byte, term, lastRecTerm, position uint64) bool {
	ahead := term + 1 // the lowest responder term that fails the round
	if kind == kPreVoteReq {
		ahead = term
	}
	type result struct {
		term    uint64
		granted bool
	}
	results := make(chan result, len(n.cfg.Peers))
	voters := 0
	for id, peer := range n.cfg.Peers {
		if id == n.cfg.NodeID {
			continue
		}
		voters++
		go func(addr string) {
			t, granted := n.requestPoll(kind, addr, term, lastRecTerm, position)
			results <- result{t, granted}
		}(peer.ReplAddr)
	}
	// Self: its own vote, or — for a pre-vote — its own timer's (or the
	// operator's) judgement that the leader is stale.
	grants := 1
	deadline := time.After(n.cfg.ElectionTimeout)
	for i := 0; i < voters && grants < n.quorum; i++ {
		select {
		case r := <-results:
			if r.term >= ahead {
				n.observeTerm(r.term)
				return false
			}
			if r.granted {
				grants++
			}
		case <-deadline:
			return false
		case <-n.stop:
			return false
		}
	}
	return grants >= n.quorum
}

// requestPoll sends one poll of kind to one peer and returns the
// responder's current term and its grant; a vote counts only when it is
// for the polled term. A pre-vote responder never adopts the term.
func (n *Node) requestPoll(kind byte, addr string, term, lastRecTerm, position uint64) (uint64, bool) {
	p, err := transport.DialPeer(addr, n.cfg.ElectionTimeout)
	if err != nil {
		return 0, false
	}
	defer p.Close()
	var w wire.Writer
	appendPollReq(&w, kind, term, n.cfg.NodeID, lastRecTerm, position)
	if err := p.SendNow(w.Bytes(), time.Now().Add(replIOTimeout)); err != nil {
		return 0, false
	}
	body, err := p.Recv(time.Now().Add(n.cfg.ElectionTimeout))
	if err != nil || len(body) == 0 || body[0] != kind+1 {
		return 0, false
	}
	respTerm, granted, err := decodePollResp(body)
	if err != nil {
		return 0, false
	}
	return respTerm, granted && (kind == kPreVoteReq || respTerm == term)
}

// becomeLeader installs leader state for term and starts one stream
// manager per peer plus the leader tick (check-quorum + compaction). The
// freshness claim is raised to the new term before any record exists in
// it (see meta), which only ever makes this node a stricter voter —
// never a less safe one. Record indices resume above the persisted
// compaction floor so the floor stays monotone across this node's
// leaderships.
func (n *Node) becomeLeader(term uint64) bool {
	n.mu.Lock()
	if n.closed || n.term != term || n.ldr != nil {
		n.mu.Unlock()
		return false
	}
	l := &leaderState{
		term:           term,
		nextIdx:        n.compactFloor + 1,
		baseIdx:        n.compactFloor + 1,
		lastIdxByShard: make([]uint64, n.svc.Shards()),
		match:          make(map[int]uint64, len(n.cfg.Peers)),
		links:          make(map[int]*followerLink, len(n.cfg.Peers)),
		heard:          make([]time.Time, len(n.cfg.Peers)),
		stopc:          make(chan struct{}),
	}
	// Check-quorum grace: every peer counts as freshly heard at election,
	// giving the streams one election timeout to attach before the lease
	// can be judged.
	now := time.Now()
	for i := range l.heard {
		l.heard[i] = now
	}
	n.ldr = l
	n.leaderID = n.cfg.NodeID
	n.electionReason = "won-election"
	n.setLastRecTermLocked(term)
	l.advanceCommitLocked(n)
	n.mu.Unlock()
	n.logf("repl: node %d leading term %d", n.cfg.NodeID, term)
	for id := range n.cfg.Peers {
		if id == n.cfg.NodeID {
			continue
		}
		n.wg.Add(1)
		go n.runPeer(l, id)
	}
	n.wg.Add(1)
	go n.leaderTick(l)
	return true
}

// acceptLoop serves the replication listener: each accepted link is an
// election poll or an inbound leader stream.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			select {
			case <-n.stop:
			default:
				if !errors.Is(err, net.ErrClosed) {
					n.logf("repl: accept: %v", err)
				}
			}
			return
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		p := transport.NewPeer(conn)
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			p.Close()
			return
		}
		n.streams[p] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveLink(p)
			p.Close()
			n.mu.Lock()
			delete(n.streams, p)
			n.mu.Unlock()
		}()
	}
}

// serveLink dispatches one accepted peer link on its first frame.
func (n *Node) serveLink(p *transport.Peer) {
	body, err := p.Recv(time.Now().Add(replIOTimeout))
	if err != nil || len(body) == 0 {
		return
	}
	switch body[0] {
	case kVoteReq:
		n.serveVote(p, body)
	case kPreVoteReq:
		n.servePreVote(p, body)
	case kHello:
		n.serveStream(p, body)
	default:
		n.logf("repl: unexpected peer frame kind %#x", body[0])
	}
}

// serveVote answers one vote request: grant if the term is current, the
// vote is unspent, and the candidate is at least as fresh (freshLocked),
// so a candidate missing quorum-committed records can never collect a
// quorum of grants. Leader stickiness: while this node hears a live leader
// within the election timeout, a higher-term request is refused *without
// adopting its term*, so a returning partitioned node's inflated term
// cannot depose a healthy leader.
func (n *Node) serveVote(p *transport.Peer, body []byte) {
	reqTerm, candidate, candRecTerm, candPos, err := decodePollReq(body)
	if err != nil {
		return
	}
	// Our own position is read before taking n.mu (shard locks order
	// before the node lock); it is monotone, so the read covers every
	// record this node has ever acknowledged.
	pos := n.svc.Position()
	n.mu.Lock()
	granted := false
	if reqTerm <= n.term || !n.hearingLeaderLocked() {
		n.stepToTermLocked(reqTerm)
		if reqTerm == n.term && (n.votedFor == -1 || n.votedFor == candidate) &&
			n.freshLocked(candRecTerm, candPos, pos) {
			prev := n.votedFor
			n.votedFor = candidate
			if prev == candidate || n.persistMetaLocked() == nil {
				granted = true
				n.lastContact = time.Now()
			}
		}
	}
	term := n.term
	n.mu.Unlock()
	var w wire.Writer
	appendPollResp(&w, kVoteResp, term, granted)
	p.SendNow(w.Bytes(), time.Now().Add(replIOTimeout))
}

// serveStream runs the follower half of a leader stream: answer the
// hello with this replica's positions, then apply snapshots and records,
// acknowledging cumulatively. Applies are coalesced: every frame already
// buffered on the link is processed before the fsync-and-acknowledge
// step, so a burst of records (all shards of one epoch tick) costs one
// flush time — the dirty shards' segments fsync concurrently — and one ack
// frame, not one of each per record. A failed flush is a nack: what it
// covered is on no disk here, so it must not count toward a quorum.
func (n *Node) serveStream(p *transport.Peer, hello []byte) {
	term, leaderID, err := decodeHello(hello)
	if err != nil {
		return
	}
	n.mu.Lock()
	n.stepToTermLocked(term)
	if term < n.term {
		cur, rec := n.term, n.lastRecTerm
		n.mu.Unlock()
		var w wire.Writer
		appendHelloAck(&w, cur, rec, nil)
		p.SendNow(w.Bytes(), time.Now().Add(replIOTimeout))
		return
	}
	n.leaderID = leaderID
	n.lastContact = time.Now()
	myRecTerm := n.lastRecTerm
	n.mu.Unlock()

	positions := n.svc.Positions(nil)
	var w wire.Writer
	appendHelloAck(&w, term, myRecTerm, positions)
	if p.SendNow(w.Bytes(), time.Now().Add(replIOTimeout)) != nil {
		return
	}

	idle := 2 * n.cfg.ElectionTimeout
	var ackIdx uint64
	dirty := false // applied records not yet synced and acknowledged
	nack := func() {
		n.mu.Lock()
		cur := n.term
		n.mu.Unlock()
		w.Reset()
		appendNack(&w, cur)
		p.SendNow(w.Bytes(), time.Now().Add(replIOTimeout))
	}
	for {
		if dirty && !p.Pending() {
			if err := n.svc.SyncWAL(); err != nil {
				n.logf("repl: syncing applied records: %v", err)
				nack()
				return
			}
			w.Reset()
			appendAck(&w, term, ackIdx)
			if p.SendNow(w.Bytes(), time.Now().Add(replIOTimeout)) != nil {
				return
			}
			dirty = false
		}
		body, err := p.Recv(time.Now().Add(idle))
		if err != nil {
			return
		}
		if len(body) == 0 {
			return
		}
		switch body[0] {
		case kSnap:
			t, shard, payload, err := decodeSnap(body)
			if err != nil || !n.streamTerm(t) {
				nack()
				return
			}
			if err := n.svc.RestoreReplicaShard(shard, payload); err != nil {
				n.logf("repl: restoring shard %d: %v", shard, err)
				nack()
				return
			}
		case kSnapEnd:
			t, idx, c, lastRecTerm, err := decodeSnapEnd(body)
			if err != nil || !n.streamTerm(t) {
				nack()
				return
			}
			n.mu.Lock()
			n.setLastRecTermLocked(lastRecTerm)
			if c > n.seenCommit {
				n.seenCommit = c
			}
			n.mu.Unlock()
			if idx > ackIdx {
				ackIdx = idx
			}
			dirty = true
		case kAppend:
			t, idx, c, shard, payload, err := decodeAppend(body)
			if err != nil || !n.streamTerm(t) {
				nack()
				return
			}
			applied, err := n.svc.ApplyReplicated(shard, payload)
			if err != nil {
				n.logf("repl: applying record %d to shard %d: %v", idx, shard, err)
				nack()
				return
			}
			n.mu.Lock()
			if applied {
				n.setLastRecTermLocked(t)
			}
			if c > n.seenCommit {
				n.seenCommit = c
			}
			n.mu.Unlock()
			if idx > ackIdx {
				ackIdx = idx
			}
			dirty = true
		case kHeartbeat:
			t, c, err := decodeHeartbeat(body)
			if err != nil || !n.streamTerm(t) {
				nack()
				return
			}
			n.mu.Lock()
			if c > n.seenCommit {
				n.seenCommit = c
			}
			n.mu.Unlock()
			dirty = true // acknowledge as the liveness pong
		default:
			n.logf("repl: unexpected stream frame kind %#x", body[0])
			return
		}
	}
}

// streamTerm validates one stream frame's term: stale terms condemn the
// stream (the sender was deposed), higher terms are adopted. It also
// refreshes the election timer — frames from the current leader are the
// contact that keeps this follower from campaigning.
func (n *Node) streamTerm(t uint64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stepToTermLocked(t)
	if t < n.term {
		return false
	}
	n.lastContact = time.Now()
	return true
}
