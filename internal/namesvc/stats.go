package namesvc

// The service's read side. Each call holds one shard lock at a time.

// Stats is a point-in-time summary across all shards.
type Stats struct {
	Shards   int
	ShardCap int
	// Epochs is the total number of completed epochs, summed over shards.
	Epochs uint64
	// Assigned and Free partition the namespace; Pending counts queued
	// requests not yet granted.
	Assigned int
	Free     int
	Pending  int
	// Acquires counts requests accepted; Grants counts names handed out
	// (including re-grants after release); Releases counts names returned;
	// Absorbed counts grants whose requester vanished mid-epoch and whose
	// names bounced straight back (Grants includes them).
	Acquires uint64
	Grants   uint64
	Releases uint64
	Absorbed uint64
	// Digests holds each shard's rolling ledger digest, indexed by shard —
	// the fingerprint a restarted instance must reproduce.
	Digests []uint64
	// WALRecords and WALSnapshots count durability artifacts written;
	// WALFailures counts failed shards, which refuse writes (see the
	// failure policy in durability.go). All zero on volatile services.
	WALRecords   uint64
	WALSnapshots uint64
	WALFailures  uint64
	// Replication status, filled by the Server from its commit gate (the
	// Service itself knows nothing of replication): the node's current
	// term and role, why it last changed term or role (for example
	// "won-election", "saw-higher-term", or "check-quorum-stepdown: "
	// followed by each peer's last-heard age), and the highest
	// replication-log index it has compacted away. Zero /
	// empty / RoleStandalone on unreplicated servers.
	ReplTerm       uint64
	ReplRole       Role
	ElectionReason string
	CompactFloor   uint64
}

// Stats collects the summary, locking each shard in turn.
func (s *Service) Stats() Stats {
	st := Stats{
		Shards:   len(s.shards),
		ShardCap: s.cfg.ShardCap,
		Digests:  make([]uint64, len(s.shards)),
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		st.Epochs += sh.led.epoch
		free := sh.led.freeCount()
		st.Free += free
		st.Assigned += s.cfg.ShardCap - free
		st.Pending += sh.queued
		st.Acquires += sh.acquires
		st.Grants += sh.led.assigns
		st.Releases += sh.led.releases
		st.Absorbed += sh.absorbed
		st.Digests[i] = sh.led.digest
		if d := sh.dur; d != nil {
			st.WALRecords += d.records
			st.WALSnapshots += d.snapshots
			if d.err.Load() != nil {
				st.WALFailures++
			}
		}
		sh.mu.Unlock()
	}
	return st
}

// ShardJournal returns a copy of a shard's retained assignment journal
// (only populated with Config.Journal set; with Config.JournalLimit it is
// the most recent window, oldest first).
func (s *Service) ShardJournal(shardIdx int) []Entry {
	sh := s.shards[shardIdx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return append([]Entry(nil), sh.led.journalWindow()...)
}

// ShardEpoch returns a shard's completed-epoch count.
func (s *Service) ShardEpoch(shardIdx int) uint64 {
	sh := s.shards[shardIdx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.led.epoch
}

// ShardDigest returns a shard's rolling ledger digest.
func (s *Service) ShardDigest(shardIdx int) uint64 {
	sh := s.shards[shardIdx]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.led.digest
}

// Digest folds every shard's ledger digest into one value: two instances
// that processed the same trace agree on it, and any divergence in any
// shard's assignment history changes it.
func (s *Service) Digest() uint64 {
	d := uint64(fnvOffset)
	for i := range s.shards {
		v := s.ShardDigest(i)
		for sft := 0; sft < 64; sft += 8 {
			d ^= (v >> sft) & 0xff
			d *= fnvPrime
		}
	}
	return d
}
