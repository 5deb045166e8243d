package namesvc

import "sync"

// binding is one name's entry in the server's binding table: the connection
// the granted name is currently deliverable and releasable on, the client
// holding it there, and the links of that connection's list of names on the
// name's shard.
type binding struct {
	conn       *svcConn // nil while no connection owns the name
	client     uint64
	prev, next uint32 // neighbouring names in conn's list; 0 ends it
}

// bindStripe is one shard's lock over its slice of the table, padded so two
// shards' stripes never share a cache line.
type bindStripe struct {
	sync.Mutex
	_ [56]byte
}

// bindTable is the server-wide binding authority — the exclusive-selection
// relation "at most one deliverable holder per name" — as one dense array
// indexed by global name, 24 B × capacity beside the ledger's 8 B ×
// capacity. A shard's entries, and the list links threaded through them,
// are guarded by that shard's stripe.
//
// An entry is written by exactly four parties, each holding the stripe:
// grant delivery binds a freshly granted name to its live recipient; a
// release burst unbinds names whose entry names the releasing connection; a
// reclaim binds a ledger-held name to the reclaiming connection, overwriting
// — stealing from — whichever connection owned it; and teardown unbinds the
// names the dead connection's own lists still hold. A steal unlinks the name
// from the previous owner's list, so a slow teardown racing a fast reconnect
// never sees, and never releases, a name its session has already reclaimed.
//
// Lock order: stripe → svcConn.mu, and stripe → shard lock: the stripe is
// held across every service call that must agree with the entry — a
// burst's ReleaseBatch, Service.Reclaim, teardown's Service.Release — so no
// reclaim can bind a name whose release is between table and ledger.
// Nothing takes a stripe while holding either of the other two.
type bindTable struct {
	stripes []bindStripe
	entries []binding // by global name; entries[0] is unused
}

func newBindTable(shards, capacity int) *bindTable {
	return &bindTable{
		stripes: make([]bindStripe, shards),
		entries: make([]binding, capacity+1),
	}
}

// bind makes c the owner of name on behalf of client, stealing it from any
// previous owner, and links it at the head of c's list for the shard. The
// shard's stripe must be held.
func (t *bindTable) bind(c *svcConn, shard, name int, client uint64) {
	e := &t.entries[name]
	if e.conn != nil {
		t.unbind(shard, name)
	}
	head := c.names[shard]
	*e = binding{conn: c, client: client, next: head}
	if head != 0 {
		t.entries[head].prev = uint32(name)
	}
	c.names[shard] = uint32(name)
}

// unbind clears a bound name's entry and unlinks it from its owner's list.
// The shard's stripe must be held.
func (t *bindTable) unbind(shard, name int) {
	e := &t.entries[name]
	if e.prev != 0 {
		t.entries[e.prev].next = e.next
	} else {
		e.conn.names[shard] = e.next
	}
	if e.next != 0 {
		t.entries[e.next].prev = e.prev
	}
	*e = binding{}
}
