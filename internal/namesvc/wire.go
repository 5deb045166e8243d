package namesvc

import (
	"fmt"

	"ballsintoleaves/internal/wire"
)

// The blnamed wire protocol: length-prefixed frames (wire.ReadFrame /
// wire.WriteFrame) whose bodies use the repository's varint format behind a
// one-byte op tag. Requests carry a client-chosen correlation tag that the
// matching response echoes, so a connection can pipeline arbitrarily many
// operations. Following the transport layer's error discipline, every
// malformed input — truncated body, trailing bytes, unknown op, oversized
// frame — is a clean per-connection error: the server closes that
// connection (releasing everything it held) and every other connection is
// unaffected. Semantically invalid but well-formed requests (releasing a
// name the connection does not hold) are answered with a reject frame and
// the connection lives on.
const (
	opHello      byte = 1  // client → server: protocol version
	opAcquire    byte = 2  // client → server: tag, client ID
	opRelease    byte = 3  // client → server: tag, global name
	opStats      byte = 4  // client → server: tag
	opReclaim    byte = 5  // client → server: tag, client ID, global name
	opEpoch      byte = 6  // client → server: tag, shard (manual-epoch servers only)
	opJournal    byte = 7  // client → server: tag, shard, start, max
	opWelcome    byte = 16 // server → client: version, shards, shard capacity
	opGrant      byte = 17 // server → client: tag, name, shard, epoch
	opReleased   byte = 18 // server → client: tag
	opStatsRep   byte = 19 // server → client: tag, counters, per-shard digests
	opReject     byte = 20 // server → client: tag, code, message
	opReclaimed  byte = 21 // server → client: tag
	opEpochRep   byte = 22 // server → client: tag, shard epoch after the close, grant count
	opJournalRep byte = 23 // server → client: tag, window total, start, entries
)

// svcProtocolVersion is the one protocol version accepted: the client's
// hello carries it and a server rejects any other, the welcome echoes it
// along with the namespace shape (shards, names per shard) and the node's
// replication role plus leader hint, so a client can redirect before its
// first write.
const svcProtocolVersion = 5

// svcMaxFrame bounds any frame of the service protocol; every op is a few
// varints — the stats reply additionally carries one digest per shard — so
// 64 KiB is generous while keeping hostile length prefixes cheap.
const svcMaxFrame = 1 << 16

// RejectCode classifies a reject frame.
type RejectCode uint64

const (
	// RejectBusy: the connection exceeded its outstanding-acquire budget.
	RejectBusy RejectCode = 1
	// RejectNotHeld: the released name is not held by this connection.
	RejectNotHeld RejectCode = 2
	// RejectInternal: the server failed to process the request.
	RejectInternal RejectCode = 3
	// RejectUnsupported: the op exists in the protocol but this server does
	// not serve it (an epoch close on a server whose epoch loops run
	// autonomously, or a journal fetch on a server that keeps no journal).
	RejectUnsupported RejectCode = 4
	// RejectNotLeader: this replica does not serve writes; the message is
	// the current leader's client address (empty if no leader is known).
	// Clients redirect there and retry (Client.LeaderHint; Session does
	// it across failover).
	RejectNotLeader RejectCode = 5
)

// String implements fmt.Stringer.
func (c RejectCode) String() string {
	switch c {
	case RejectBusy:
		return "busy"
	case RejectNotHeld:
		return "not-held"
	case RejectInternal:
		return "internal"
	case RejectUnsupported:
		return "unsupported"
	case RejectNotLeader:
		return "not-leader"
	default:
		return fmt.Sprintf("reject(%d)", uint64(c))
	}
}

func appendSvcHello(w *wire.Writer) {
	w.Byte(opHello)
	w.Uvarint(svcProtocolVersion)
}

func decodeSvcHello(body []byte) error {
	r := wire.NewReader(body)
	if k := r.Byte(); r.Err() == nil && k != opHello {
		return fmt.Errorf("namesvc: expected hello, got op %d", k)
	}
	version := r.Uvarint()
	if err := r.Close(); err != nil {
		return err
	}
	if version != svcProtocolVersion {
		return fmt.Errorf("namesvc: protocol version %d, want %d", version, svcProtocolVersion)
	}
	return nil
}

// Role is a server's replication role, reported in the welcome.
type Role uint64

const (
	// RoleStandalone serves writes and replicates to nobody.
	RoleStandalone Role = 0
	// RoleLeader serves writes and replicates them to a quorum.
	RoleLeader Role = 1
	// RoleFollower serves reads only; writes are rejected with
	// RejectNotLeader plus the leader's address.
	RoleFollower Role = 2
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleStandalone:
		return "standalone"
	case RoleLeader:
		return "leader"
	case RoleFollower:
		return "follower"
	default:
		return fmt.Sprintf("role(%d)", uint64(r))
	}
}

func appendWelcome(w *wire.Writer, shards, shardCap int, role Role, leader string) {
	w.Byte(opWelcome)
	w.Uvarint(svcProtocolVersion)
	w.Uvarint(uint64(shards))
	w.Uvarint(uint64(shardCap))
	w.Uvarint(uint64(role))
	w.Uvarint(uint64(len(leader)))
	w.Raw([]byte(leader))
}

func decodeWelcome(body []byte) (shards, shardCap int, role Role, leader string, err error) {
	r := wire.NewReader(body)
	if k := r.Byte(); r.Err() == nil && k != opWelcome {
		return 0, 0, 0, "", fmt.Errorf("namesvc: expected welcome, got op %d", k)
	}
	version := r.Uvarint()
	shards = int(r.Uvarint())
	shardCap = int(r.Uvarint())
	role = Role(r.Uvarint())
	leaderLen := r.Uvarint()
	if r.Err() == nil && leaderLen > uint64(r.Remaining()) {
		return 0, 0, 0, "", fmt.Errorf("%w: leader hint of %d bytes in %d remaining", wire.ErrTruncated, leaderLen, r.Remaining())
	}
	leader = string(r.Bytes(int(leaderLen)))
	if err := r.Close(); err != nil {
		return 0, 0, 0, "", err
	}
	if version != svcProtocolVersion {
		return 0, 0, 0, "", fmt.Errorf("namesvc: protocol version %d, want %d", version, svcProtocolVersion)
	}
	if shards < 1 || shardCap < 1 {
		return 0, 0, 0, "", fmt.Errorf("namesvc: welcome with %d shards x %d names", shards, shardCap)
	}
	return shards, shardCap, role, leader, nil
}

func appendAcquire(w *wire.Writer, tag, client uint64) {
	w.Byte(opAcquire)
	w.Uvarint(tag)
	w.Uvarint(client)
}

func decodeAcquire(body []byte) (tag, client uint64, err error) {
	r := wire.NewReader(body)
	r.Byte() // op, already dispatched
	tag = r.Uvarint()
	client = r.Uvarint()
	if err := r.Close(); err != nil {
		return 0, 0, err
	}
	if client == 0 {
		return 0, 0, fmt.Errorf("namesvc: acquire with zero client ID")
	}
	return tag, client, nil
}

func appendRelease(w *wire.Writer, tag uint64, name int) {
	w.Byte(opRelease)
	w.Uvarint(tag)
	w.Uvarint(uint64(name))
}

func decodeRelease(body []byte) (tag uint64, name int, err error) {
	r := wire.NewReader(body)
	r.Byte()
	tag = r.Uvarint()
	name = int(r.Uvarint())
	if err := r.Close(); err != nil {
		return 0, 0, err
	}
	if name < 1 {
		return 0, 0, fmt.Errorf("namesvc: release of name %d", name)
	}
	return tag, name, nil
}

func appendReclaim(w *wire.Writer, tag, client uint64, name int) {
	w.Byte(opReclaim)
	w.Uvarint(tag)
	w.Uvarint(client)
	w.Uvarint(uint64(name))
}

func decodeReclaim(body []byte) (tag, client uint64, name int, err error) {
	r := wire.NewReader(body)
	r.Byte()
	tag = r.Uvarint()
	client = r.Uvarint()
	name = int(r.Uvarint())
	if err := r.Close(); err != nil {
		return 0, 0, 0, err
	}
	if client == 0 {
		return 0, 0, 0, fmt.Errorf("namesvc: reclaim with zero client ID")
	}
	if name < 1 {
		return 0, 0, 0, fmt.Errorf("namesvc: reclaim of name %d", name)
	}
	return tag, client, name, nil
}

func appendReclaimed(w *wire.Writer, tag uint64) {
	w.Byte(opReclaimed)
	w.Uvarint(tag)
}

func decodeReclaimed(body []byte) (tag uint64, err error) {
	r := wire.NewReader(body)
	r.Byte()
	tag = r.Uvarint()
	if err := r.Close(); err != nil {
		return 0, err
	}
	return tag, nil
}

func appendStatsReq(w *wire.Writer, tag uint64) {
	w.Byte(opStats)
	w.Uvarint(tag)
}

func decodeStatsReq(body []byte) (tag uint64, err error) {
	r := wire.NewReader(body)
	r.Byte()
	tag = r.Uvarint()
	if err := r.Close(); err != nil {
		return 0, err
	}
	return tag, nil
}

func appendGrant(w *wire.Writer, tag uint64, g Grant) {
	w.Byte(opGrant)
	w.Uvarint(tag)
	w.Uvarint(uint64(g.Name))
	w.Uvarint(uint64(g.Shard))
	w.Uvarint(g.Epoch)
}

func decodeGrant(body []byte) (tag uint64, g Grant, err error) {
	r := wire.NewReader(body)
	r.Byte()
	tag = r.Uvarint()
	g.Name = int(r.Uvarint())
	g.Shard = int(r.Uvarint())
	g.Epoch = r.Uvarint()
	if err := r.Close(); err != nil {
		return 0, Grant{}, err
	}
	if g.Name < 1 {
		return 0, Grant{}, fmt.Errorf("namesvc: grant of name %d", g.Name)
	}
	return tag, g, nil
}

func appendReleased(w *wire.Writer, tag uint64) {
	w.Byte(opReleased)
	w.Uvarint(tag)
}

func decodeReleased(body []byte) (tag uint64, err error) {
	r := wire.NewReader(body)
	r.Byte()
	tag = r.Uvarint()
	if err := r.Close(); err != nil {
		return 0, err
	}
	return tag, nil
}

func appendStatsRep(w *wire.Writer, tag uint64, st Stats) {
	w.Byte(opStatsRep)
	w.Uvarint(tag)
	w.Uvarint(uint64(st.Shards))
	w.Uvarint(uint64(st.ShardCap))
	w.Uvarint(st.Epochs)
	w.Uvarint(uint64(st.Assigned))
	w.Uvarint(uint64(st.Free))
	w.Uvarint(uint64(st.Pending))
	w.Uvarint(st.Acquires)
	w.Uvarint(st.Grants)
	w.Uvarint(st.Releases)
	w.Uvarint(st.Absorbed)
	w.Uvarint(uint64(len(st.Digests)))
	for _, d := range st.Digests {
		w.Uvarint(d)
	}
	w.Uvarint(st.WALRecords)
	w.Uvarint(st.WALSnapshots)
	w.Uvarint(st.WALFailures)
	w.Uvarint(st.ReplTerm)
	w.Uvarint(uint64(st.ReplRole))
	w.Uvarint(st.CompactFloor)
	w.Uvarint(uint64(len(st.ElectionReason)))
	w.Raw([]byte(st.ElectionReason))
}

func decodeStatsRep(body []byte) (tag uint64, st Stats, err error) {
	r := wire.NewReader(body)
	r.Byte()
	tag = r.Uvarint()
	st.Shards = int(r.Uvarint())
	st.ShardCap = int(r.Uvarint())
	st.Epochs = r.Uvarint()
	st.Assigned = int(r.Uvarint())
	st.Free = int(r.Uvarint())
	st.Pending = int(r.Uvarint())
	st.Acquires = r.Uvarint()
	st.Grants = r.Uvarint()
	st.Releases = r.Uvarint()
	st.Absorbed = r.Uvarint()
	n := r.Uvarint()
	if r.Err() == nil && n > uint64(r.Remaining()+1) {
		return 0, Stats{}, fmt.Errorf("%w: %d digests in %d remaining", wire.ErrTruncated, n, r.Remaining())
	}
	if n > 0 {
		st.Digests = make([]uint64, 0, n)
		for i := uint64(0); i < n; i++ {
			st.Digests = append(st.Digests, r.Uvarint())
		}
	}
	st.WALRecords = r.Uvarint()
	st.WALSnapshots = r.Uvarint()
	st.WALFailures = r.Uvarint()
	st.ReplTerm = r.Uvarint()
	st.ReplRole = Role(r.Uvarint())
	st.CompactFloor = r.Uvarint()
	rl := r.Uvarint()
	if r.Err() == nil && rl > uint64(r.Remaining()) {
		return 0, Stats{}, fmt.Errorf("%w: %d-byte election reason in %d remaining", wire.ErrTruncated, rl, r.Remaining())
	}
	if rl > 0 {
		st.ElectionReason = string(r.Bytes(int(rl)))
	}
	if err := r.Close(); err != nil {
		return 0, Stats{}, err
	}
	return tag, st, nil
}

func appendReject(w *wire.Writer, tag uint64, code RejectCode, msg string) {
	w.Byte(opReject)
	w.Uvarint(tag)
	w.Uvarint(uint64(code))
	w.Uvarint(uint64(len(msg)))
	w.Raw([]byte(msg))
}

func appendEpochReq(w *wire.Writer, tag uint64, shard int) {
	w.Byte(opEpoch)
	w.Uvarint(tag)
	w.Uvarint(uint64(shard))
}

func decodeEpochReq(body []byte) (tag uint64, shard int, err error) {
	r := wire.NewReader(body)
	r.Byte()
	tag = r.Uvarint()
	shard = int(r.Uvarint())
	if err := r.Close(); err != nil {
		return 0, 0, err
	}
	return tag, shard, nil
}

func appendEpochRep(w *wire.Writer, tag, epoch uint64, granted int) {
	w.Byte(opEpochRep)
	w.Uvarint(tag)
	w.Uvarint(epoch)
	w.Uvarint(uint64(granted))
}

func decodeEpochRep(body []byte) (tag, epoch uint64, granted int, err error) {
	r := wire.NewReader(body)
	r.Byte()
	tag = r.Uvarint()
	epoch = r.Uvarint()
	granted = int(r.Uvarint())
	if err := r.Close(); err != nil {
		return 0, 0, 0, err
	}
	return tag, epoch, granted, nil
}

// journalPageMax caps the entries per journal reply so a page of five-varint
// entries always fits svcMaxFrame with room to spare.
const journalPageMax = 1024

func appendJournalReq(w *wire.Writer, tag uint64, shard, start, maxEntries int) {
	w.Byte(opJournal)
	w.Uvarint(tag)
	w.Uvarint(uint64(shard))
	w.Uvarint(uint64(start))
	w.Uvarint(uint64(maxEntries))
}

func decodeJournalReq(body []byte) (tag uint64, shard, start, maxEntries int, err error) {
	r := wire.NewReader(body)
	r.Byte()
	tag = r.Uvarint()
	shard = int(r.Uvarint())
	start = int(r.Uvarint())
	maxEntries = int(r.Uvarint())
	if err := r.Close(); err != nil {
		return 0, 0, 0, 0, err
	}
	if start < 0 || maxEntries < 0 {
		return 0, 0, 0, 0, fmt.Errorf("namesvc: journal request start %d max %d", start, maxEntries)
	}
	return tag, shard, start, maxEntries, nil
}

// JournalPage is one paged window of a shard's retained journal, fetched
// over the wire: Entries holds journal positions Start..Start+len(Entries)-1
// of a retained window Total entries long (names are shard-local, exactly as
// Service.ShardJournal reports them).
type JournalPage struct {
	Total   int
	Start   int
	Entries []Entry
}

func appendJournalRep(w *wire.Writer, tag uint64, page JournalPage) {
	w.Byte(opJournalRep)
	w.Uvarint(tag)
	w.Uvarint(uint64(page.Total))
	w.Uvarint(uint64(page.Start))
	w.Uvarint(uint64(len(page.Entries)))
	for _, e := range page.Entries {
		w.Uvarint(e.Epoch)
		w.Byte(byte(e.Op))
		w.Uvarint(e.Client)
		w.Uvarint(e.ReqID)
		w.Uvarint(uint64(e.Name))
	}
}

func decodeJournalRep(body []byte) (tag uint64, page JournalPage, err error) {
	r := wire.NewReader(body)
	r.Byte()
	tag = r.Uvarint()
	page.Total = int(r.Uvarint())
	page.Start = int(r.Uvarint())
	n := r.Uvarint()
	if r.Err() == nil && n > uint64(r.Remaining()/5+1) {
		return 0, JournalPage{}, fmt.Errorf("%w: %d journal entries in %d remaining", wire.ErrTruncated, n, r.Remaining())
	}
	if n > 0 {
		page.Entries = make([]Entry, 0, n)
		for i := uint64(0); i < n; i++ {
			page.Entries = append(page.Entries, Entry{
				Epoch:  r.Uvarint(),
				Op:     EntryOp(r.Byte()),
				Client: r.Uvarint(),
				ReqID:  r.Uvarint(),
				Name:   int(r.Uvarint()),
			})
		}
	}
	if err := r.Close(); err != nil {
		return 0, JournalPage{}, err
	}
	if page.Total < 0 || page.Start < 0 {
		return 0, JournalPage{}, fmt.Errorf("namesvc: journal page start %d of %d", page.Start, page.Total)
	}
	return tag, page, nil
}

func decodeReject(body []byte) (tag uint64, code RejectCode, msg string, err error) {
	r := wire.NewReader(body)
	r.Byte()
	tag = r.Uvarint()
	code = RejectCode(r.Uvarint())
	msgLen := r.Uvarint()
	if r.Err() == nil && msgLen > uint64(r.Remaining()) {
		return 0, 0, "", fmt.Errorf("%w: reject message of %d bytes in %d remaining", wire.ErrTruncated, msgLen, r.Remaining())
	}
	msg = string(r.Bytes(int(msgLen)))
	if err := r.Close(); err != nil {
		return 0, 0, "", err
	}
	return tag, code, msg, nil
}
