package repl

import (
	"encoding/json"
	"fmt"

	"ballsintoleaves/internal/namesvc/durable"
)

// meta is the durable election state. Term and VotedFor are the classic
// Raft pair: persisted before any vote or vote request leaves the node,
// so a restart can never vote twice in one term. LastRecTerm is the term
// of the newest record this replica holds — the WAL itself carries no
// terms, so it must survive restarts separately or a restarted node
// would understate its freshness and hand leadership to a replica
// missing quorum-committed records. It is persisted before the
// corresponding acknowledgement (follower) or before serving (leader),
// keeping "what I claim" always at or above "what I acknowledged".
// CompactFloor is the highest replication-log index this node has pruned
// while leading, persisted before the prefix is dropped so a recovered
// node can never claim to still stream records it discarded. Seq orders
// the store's slot writes; every field is monotone across a crash because
// a save is acknowledged only after it is durable.
type meta struct {
	Seq          uint64 `json:"seq"`
	Term         uint64 `json:"term"`
	VotedFor     int    `json:"voted_for"` // -1 = none this term
	LastRecTerm  uint64 `json:"last_record_term"`
	CompactFloor uint64 `json:"compact_floor"`
}

func zeroMeta() meta { return meta{VotedFor: -1} }

// sinkMeta persists election state over a durable.Sink, which offers no
// rename: instead of install-by-rename it alternates between two slot
// files, <base>.a and <base>.b, by sequence number and syncs file and
// directory before acknowledging. A crash tears at most the slot being
// written; the other slot still holds the previous durable state, and load
// picks the newest slot that parses — so recovery is always old state or
// new, never a torn mixture. A slot that exists but cannot be read fails
// the load: guessing past it could respend a vote. load also reads <base>
// itself, the single file older releases installed by rename: it holds
// the same JSON with its Seq, so a node upgraded in place keeps its vote
// until a slot supersedes it.
type sinkMeta struct {
	sink durable.Sink
	base string
}

// metaBase is the slot base name inside a MetaSink.
const metaBase = "repl-meta"

func (s sinkMeta) load() (meta, error) {
	names, err := s.sink.List()
	if err != nil {
		return meta{}, fmt.Errorf("repl: listing meta: %w", err)
	}
	best, found := zeroMeta(), false
	for _, name := range names {
		legacy := name == s.base
		if !legacy && name != s.base+".a" && name != s.base+".b" {
			continue
		}
		data, err := s.sink.ReadAll(name)
		if err != nil {
			return meta{}, fmt.Errorf("repl: reading %s: %w", name, err)
		}
		var m meta
		if err := json.Unmarshal(data, &m); err != nil {
			if legacy {
				// Installed by rename, so never torn: this is damage.
				return meta{}, fmt.Errorf("repl: parsing %s: %w", name, err)
			}
			continue // torn slot write: a strict JSON prefix never parses
		}
		if !found || m.Seq > best.Seq {
			best, found = m, true
		}
	}
	return best, nil
}

func (s sinkMeta) save(m meta) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("repl: encoding meta: %w", err)
	}
	slot := s.base + ".a"
	if m.Seq%2 == 1 {
		slot = s.base + ".b"
	}
	f, err := s.sink.Create(slot)
	if err != nil {
		return fmt.Errorf("repl: writing meta slot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("repl: writing meta slot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("repl: syncing meta slot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("repl: closing meta slot: %w", err)
	}
	if err := s.sink.Sync(); err != nil {
		return fmt.Errorf("repl: syncing meta dir: %w", err)
	}
	return nil
}
