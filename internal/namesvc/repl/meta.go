package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

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
// writes for the slotted sink store; every field is monotone across a
// crash because a save is acknowledged only after it is durable.
type meta struct {
	Seq          uint64 `json:"seq"`
	Term         uint64 `json:"term"`
	VotedFor     int    `json:"voted_for"` // -1 = none this term
	LastRecTerm  uint64 `json:"last_record_term"`
	CompactFloor uint64 `json:"compact_floor"`
}

// metaStore persists election state. Two implementations share the
// contract that a save returning nil is durable and a crash mid-save
// recovers to either the previous state or the new one, never a torn
// mixture: fileMeta (temp+fsync+rename on a real path) and sinkMeta
// (alternating slots over a durable.Sink, which has no rename — used by
// tests and the CrashBudget crash-point sweep).
type metaStore interface {
	load() (meta, error)
	save(meta) error
}

func zeroMeta() meta { return meta{VotedFor: -1} }

// memMeta is the memory-only store (tests without restart coverage).
type memMeta struct{ m meta }

func newMemMeta() *memMeta             { return &memMeta{m: zeroMeta()} }
func (s *memMeta) load() (meta, error) { return s.m, nil }
func (s *memMeta) save(m meta) error   { s.m = m; return nil }

// fileMeta persists to one JSON file with the temp file, fsync, rename,
// directory-fsync discipline — the same as the WAL's snapshot writes, so
// a crash leaves either the old state or the new, never a torn file.
type fileMeta struct{ path string }

func (s fileMeta) load() (meta, error) {
	m := zeroMeta()
	data, err := os.ReadFile(s.path)
	if errors.Is(err, fs.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return m, fmt.Errorf("repl: reading %s: %w", s.path, err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("repl: parsing %s: %w", s.path, err)
	}
	return m, nil
}

func (s fileMeta) save(m meta) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("repl: encoding meta: %w", err)
	}
	dir := filepath.Dir(s.path)
	tmp := s.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("repl: writing meta: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("repl: writing meta: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("repl: syncing meta: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("repl: closing meta: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("repl: installing meta: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Slot names for the sink-backed store.
const (
	metaSlotA = "repl-meta.a"
	metaSlotB = "repl-meta.b"
)

// sinkMeta persists over a durable.Sink, which offers no rename: instead
// of install-by-rename it alternates between two slot files by sequence
// number and syncs before acknowledging. A crash tears at most the slot
// being written; the other slot still holds the previous durable state,
// and load picks the newest slot that parses — so recovery is always
// old-state-or-new, exactly like the rename path.
type sinkMeta struct{ sink durable.Sink }

func (s sinkMeta) load() (meta, error) {
	best, found := zeroMeta(), false
	for _, slot := range []string{metaSlotA, metaSlotB} {
		data, err := s.sink.ReadAll(slot)
		if err != nil {
			continue // missing or unreadable slot: the other one decides
		}
		var m meta
		if json.Unmarshal(data, &m) != nil {
			continue // torn write: a strict JSON prefix never parses
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
	slot := metaSlotA
	if m.Seq%2 == 1 {
		slot = metaSlotB
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
