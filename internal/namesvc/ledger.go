package namesvc

import (
	"fmt"
	"math/bits"
)

// EntryOp tags one ledger journal entry.
type EntryOp uint8

const (
	// OpAssign records a name leaving the free pool for a client.
	OpAssign EntryOp = iota + 1
	// OpRelease records a name returning to the free pool.
	OpRelease
)

// String implements fmt.Stringer.
func (op EntryOp) String() string {
	switch op {
	case OpAssign:
		return "assign"
	case OpRelease:
		return "release"
	default:
		return fmt.Sprintf("EntryOp(%d)", uint8(op))
	}
}

// Entry is one event in a shard's assignment ledger. Name is shard-local
// (1..ShardCap); the service-level view adds the shard offset. ReqID is the
// acquire request that produced an assignment, and 0 for releases.
type Entry struct {
	Epoch  uint64
	Op     EntryOp
	Client uint64
	ReqID  uint64
	Name   int
}

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters used for the rolling
// ledger digest.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// ledger is one shard's namespace bookkeeping: which local names are held by
// whom, the free pool the epoch batches draw from, and a rolling digest
// (plus an optional, optionally capped journal) of every assign/release
// event, so two replays of the same trace can be compared in O(1) space.
//
// The free pool is a two-level bitmap: bit (name-1)%64 of words[(name-1)/64]
// is set iff the local name is free, and bit w%64 of summary[w/64] is set
// iff words[w] is non-zero. Assign and release are O(1) bit operations, and
// find-k-smallest walks set bits in ascending order via TrailingZeros64 —
// O(k) once positioned, plus O(cap/4096) to skip empty summary words. This
// replaces the sorted-slice free list whose every assign/release paid an
// O(cap) memmove; the two representations grant identical names in
// identical order (pinned by TestLedgerDifferentialChurn against the
// retained reference implementation).
//
// The ledger is not safe for concurrent use; its owning shard serializes
// access.
type ledger struct {
	cap     int
	holder  []uint64 // holder[name-1]: holding client, 0 = free
	words   []uint64 // leaf bitmap: free names
	summary []uint64 // summary[i] bit j set iff words[64i+j] != 0
	nfree   int
	peekBuf []int // scratch for peekFree; lazily grown, reused

	epoch  uint64 // completed epochs
	digest uint64 // rolling FNV-1a over all journal events

	journal bool
	// journalCap, when positive, bounds the retained journal to the most
	// recent journalCap entries: older entries are dropped (the digest
	// still covers the full history). Zero retains everything.
	journalCap int
	entries    []Entry
	jstart     int // live journal window is entries[jstart:]
	assigns    uint64
	releases   uint64

	// staging, when set, copies every recorded event into stage — the
	// write-ahead-log staging buffer the owning shard drains into one WAL
	// record per mutation batch (durability.go). It is off during recovery
	// replay, so replayed events are not re-logged.
	staging bool
	stage   []Entry
}

// newLedger builds a ledger over local names 1..capacity. journalCap bounds
// the retained journal (0 = unbounded); it only matters with journal set.
func newLedger(capacity int, journal bool, journalCap int) *ledger {
	nw := (capacity + 63) / 64
	l := &ledger{
		cap:        capacity,
		holder:     make([]uint64, capacity),
		words:      make([]uint64, nw),
		summary:    make([]uint64, (nw+63)/64),
		nfree:      capacity,
		digest:     fnvOffset,
		journal:    journal,
		journalCap: journalCap,
	}
	for w := range l.words {
		l.words[w] = ^uint64(0)
		l.summary[w/64] |= 1 << (uint(w) % 64)
	}
	if tail := capacity % 64; tail != 0 {
		l.words[nw-1] = (1 << tail) - 1
	}
	return l
}

// freeCount returns the number of unassigned local names.
func (l *ledger) freeCount() int { return l.nfree }

// peekFree returns the k smallest free names in ascending order without
// removing them. The returned slice is the ledger's reusable scratch, valid
// until the next peekFree call; its contents are plain values, so it stays
// stable across assign/release (unlike the sorted-slice representation it
// replaced, whose aliasing forced callers to copy).
func (l *ledger) peekFree(k int) []int {
	if cap(l.peekBuf) < k {
		l.peekBuf = make([]int, 0, max(k, 64))
	}
	out := l.peekBuf[:0]
	for si, sw := range l.summary {
		for sw != 0 {
			w := si*64 + bits.TrailingZeros64(sw)
			sw &= sw - 1
			word := l.words[w]
			for word != 0 {
				out = append(out, w*64+bits.TrailingZeros64(word)+1)
				if len(out) == k {
					l.peekBuf = out
					return out
				}
				word &= word - 1
			}
		}
	}
	l.peekBuf = out
	return out // fewer than k free names
}

// assign moves a free local name to the client, recording the event. The
// name must currently be free; assigning a held name panics, because the
// epoch loop only hands out names drawn from the free list and anything
// else is ledger corruption.
func (l *ledger) assign(epoch, reqID, client uint64, name int) {
	if name < 1 || name > l.cap {
		panic(fmt.Sprintf("namesvc: assigning out-of-range name %d", name))
	}
	b := uint(name - 1)
	w := b / 64
	bit := uint64(1) << (b % 64)
	if l.words[w]&bit == 0 {
		panic(fmt.Sprintf("namesvc: assigning non-free name %d", name))
	}
	l.words[w] &^= bit
	if l.words[w] == 0 {
		l.summary[w/64] &^= 1 << (w % 64)
	}
	l.nfree--
	l.holder[name-1] = client
	l.assigns++
	l.record(Entry{Epoch: epoch, Op: OpAssign, Client: client, ReqID: reqID, Name: name})
}

// release returns a held local name to the free pool. It errors if the name
// is not currently held by the given client, so a buggy or hostile caller
// cannot free someone else's name.
func (l *ledger) release(epoch, client uint64, name int) error {
	if name < 1 || name > l.cap {
		return fmt.Errorf("namesvc: name %d outside 1..%d", name, l.cap)
	}
	switch h := l.holder[name-1]; {
	case h == 0:
		return fmt.Errorf("namesvc: name %d is not assigned", name)
	case h != client:
		return fmt.Errorf("namesvc: name %d is not held by client %d", name, client)
	}
	l.holder[name-1] = 0
	b := uint(name - 1)
	w := b / 64
	l.words[w] |= 1 << (b % 64)
	l.summary[w/64] |= 1 << (w % 64)
	l.nfree++
	l.releases++
	l.record(Entry{Epoch: epoch, Op: OpRelease, Client: client, Name: name})
	return nil
}

// record folds an event into the rolling digest and, when journaling, the
// entry log. With a journal cap, the oldest entry beyond the cap is dropped
// by advancing the window start; the backing array is compacted once the
// dead prefix reaches the cap, so memory is bounded by 2×cap entries and
// the amortized cost stays O(1). The digest always covers the full history:
// a capped journal trades replayability of the dropped prefix for bounded
// memory, while divergence detection (digest comparison) remains exact.
func (l *ledger) record(e Entry) {
	d := l.digest
	for _, v := range [...]uint64{e.Epoch, uint64(e.Op), e.Client, e.ReqID, uint64(e.Name)} {
		for s := 0; s < 64; s += 8 {
			d ^= (v >> s) & 0xff
			d *= fnvPrime
		}
	}
	l.digest = d
	if l.staging {
		l.stage = append(l.stage, e)
	}
	if !l.journal {
		return
	}
	l.entries = append(l.entries, e)
	if l.journalCap > 0 && len(l.entries)-l.jstart > l.journalCap {
		l.jstart++
		if l.jstart >= l.journalCap {
			n := copy(l.entries, l.entries[l.jstart:])
			l.entries = l.entries[:n]
			l.jstart = 0
		}
	}
}

// journalWindow returns the retained journal entries, oldest first.
func (l *ledger) journalWindow() []Entry { return l.entries[l.jstart:] }

// takeStage returns the WAL-staged events since the last take and resets
// the buffer (retaining capacity). The returned slice aliases the buffer:
// it is valid until the next recorded event, which under the shard lock
// means until the caller's own next mutation.
func (l *ledger) takeStage() []Entry {
	e := l.stage
	l.stage = l.stage[:0]
	return e
}

// holderOf returns the client holding a local name, 0 if free.
func (l *ledger) holderOf(name int) uint64 {
	if name < 1 || name > l.cap {
		return 0
	}
	return l.holder[name-1]
}

// restore overwrites the ledger's assignment state from a snapshot: the
// holder array (0 = free), the full-history digest, the event counters,
// and the completed-epoch count. The free-pool bitmap is rebuilt from the
// holders. The journal window, when the ledger journals, is replaced by
// win. Only snapshot install (installSnapshotLocked) calls it, on a freshly
// built ledger that is not staging.
func (l *ledger) restore(epoch uint64, holder []uint64, digest, assigns, releases uint64, win []Entry) error {
	if len(holder) != l.cap {
		return fmt.Errorf("namesvc: snapshot holds %d names, ledger capacity %d", len(holder), l.cap)
	}
	copy(l.holder, holder)
	for i := range l.words {
		l.words[i] = 0
	}
	for i := range l.summary {
		l.summary[i] = 0
	}
	l.nfree = 0
	for i, h := range l.holder {
		if h != 0 {
			continue
		}
		l.words[i/64] |= 1 << (uint(i) % 64)
		l.summary[i/64/64] |= 1 << (uint(i/64) % 64)
		l.nfree++
	}
	l.epoch = epoch
	l.digest = digest
	l.assigns = assigns
	l.releases = releases
	if l.journal {
		l.entries = append(l.entries[:0], win...)
		l.jstart = 0
	}
	return nil
}
