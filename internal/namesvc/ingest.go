package namesvc

import (
	"fmt"

	"ballsintoleaves/internal/wire"
)

// Ingestion: decoding a connection's pipelined burst, admitting it and
// submitting it to the service. Locks, in ARCHITECTURE's "Lock order, stated
// once": manualMu (an epoch op's closeManualEpoch), taken holding nothing;
// binding stripe → shard lock (ReleaseBatch, Service.Reclaim); c.mu alone,
// to register acquires; the shard lock alone (AcquireBatch, stats, journal).

// maxIngestBurst caps the frames decoded per ingestion pass, bounding the
// per-connection bucket scratch and the latency of the first op in a burst.
const maxIngestBurst = 512

// ingest is one connection's reusable burst-decoding scratch, owned by its
// read loop: the decoded ops of the current burst in frame order, the
// per-shard submission buckets, and the batched response frames.
type ingest struct {
	frames int
	w      wire.Writer // response-body encode scratch
	resp   []byte      // batched response frames for this burst

	acqTag []uint64 // decoded acquires, frame order
	acqCli []uint64
	acqReq []*connReq // registered request state; nil = rejected busy

	relTag  []uint64 // decoded releases, frame order
	relName []int

	acq    [][]AcquireOp // per-shard submission buckets
	rel    [][]ReleaseOp
	relIdx [][]int // burst index per bucketed release (for replies)
	ids    []uint64
	errs   []error
}

func newIngest(shards int) *ingest {
	return &ingest{
		acq:    make([][]AcquireOp, shards),
		rel:    make([][]ReleaseOp, shards),
		relIdx: make([][]int, shards),
	}
}

// reset clears the per-burst state, keeping every buffer's capacity.
func (in *ingest) reset() {
	in.frames = 0
	in.resp = in.resp[:0]
	in.acqTag = in.acqTag[:0]
	in.acqCli = in.acqCli[:0]
	in.acqReq = in.acqReq[:0]
	in.relTag = in.relTag[:0]
	in.relName = in.relName[:0]
	for i := range in.acq {
		in.acq[i] = in.acq[i][:0]
		in.rel[i] = in.rel[i][:0]
		in.relIdx[i] = in.relIdx[i][:0]
	}
}

// pushResp appends the frame just encoded in in.w to the burst's response
// buffer.
func (in *ingest) pushResp() {
	in.resp = wire.AppendFrame(in.resp, in.w.Bytes())
}

// ingestFrame decodes one frame into the burst scratch; true means the
// connection must be closed (malformed frame or unknown op). Stats requests
// force the pending burst out first, so the reply observes every preceding
// operation, matching one-at-a-time semantics.
func (s *Server) ingestFrame(c *svcConn, in *ingest, body []byte) (fatal bool) {
	in.frames++
	op := byte(0)
	if len(body) > 0 {
		op = body[0]
	}
	switch op {
	case opAcquire:
		tag, client, err := decodeAcquire(body)
		if err != nil {
			s.cfg.Logf("%v: malformed acquire: %v (closing connection)", c.conn.RemoteAddr(), err)
			return true
		}
		if !s.admitWrite(in, tag) {
			return false
		}
		in.acqTag = append(in.acqTag, tag)
		in.acqCli = append(in.acqCli, client)
	case opRelease:
		tag, name, err := decodeRelease(body)
		if err != nil {
			s.cfg.Logf("%v: malformed release: %v (closing connection)", c.conn.RemoteAddr(), err)
			return true
		}
		if !s.admitWrite(in, tag) {
			return false
		}
		in.relTag = append(in.relTag, tag)
		in.relName = append(in.relName, name)
	case opStats:
		tag, err := decodeStatsReq(body)
		if err != nil {
			s.cfg.Logf("%v: malformed stats: %v (closing connection)", c.conn.RemoteAddr(), err)
			return true
		}
		s.submitBurst(c, in)
		if !s.admitRead(in, tag) {
			return false
		}
		st := s.svc.Stats()
		if s.repl != nil {
			st.ReplTerm, st.ReplRole, st.ElectionReason, st.CompactFloor = s.repl.WireReplStats()
		}
		in.w.Reset()
		appendStatsRep(&in.w, tag, st)
		in.pushResp()
	case opEpoch:
		tag, shard, err := decodeEpochReq(body)
		if err != nil {
			s.cfg.Logf("%v: malformed epoch: %v (closing connection)", c.conn.RemoteAddr(), err)
			return true
		}
		// Flush the burst first: an epoch close must batch every acquire
		// that preceded it on this connection, exactly the FIFO semantics
		// the replay harness depends on.
		s.submitBurst(c, in)
		if !s.admitWrite(in, tag) {
			return false
		}
		in.w.Reset()
		switch {
		case !s.cfg.ManualEpochs:
			appendReject(&in.w, tag, RejectUnsupported, "server closes epochs autonomously")
		case shard < 0 || shard >= s.svc.Shards():
			appendReject(&in.w, tag, RejectInternal,
				fmt.Sprintf("shard %d outside 0..%d", shard, s.svc.Shards()-1))
		default:
			epoch, granted, err := s.closeManualEpoch(shard)
			if err != nil {
				appendReject(&in.w, tag, RejectInternal, err.Error())
			} else {
				appendEpochRep(&in.w, tag, epoch, granted)
			}
		}
		in.pushResp()
	case opJournal:
		tag, shard, start, maxEntries, err := decodeJournalReq(body)
		if err != nil {
			s.cfg.Logf("%v: malformed journal: %v (closing connection)", c.conn.RemoteAddr(), err)
			return true
		}
		s.submitBurst(c, in)
		if !s.admitRead(in, tag) {
			return false
		}
		in.w.Reset()
		switch {
		case !s.svc.cfg.Journal:
			appendReject(&in.w, tag, RejectUnsupported, "server keeps no journal")
		case shard < 0 || shard >= s.svc.Shards():
			appendReject(&in.w, tag, RejectInternal,
				fmt.Sprintf("shard %d outside 0..%d", shard, s.svc.Shards()-1))
		default:
			win := s.svc.ShardJournal(shard)
			if maxEntries <= 0 || maxEntries > journalPageMax {
				maxEntries = journalPageMax
			}
			if start > len(win) {
				start = len(win)
			}
			end := min(start+maxEntries, len(win))
			appendJournalRep(&in.w, tag, JournalPage{
				Total:   len(win),
				Start:   start,
				Entries: win[start:end],
			})
		}
		in.pushResp()
	case opReclaim:
		tag, client, name, err := decodeReclaim(body)
		if err != nil {
			s.cfg.Logf("%v: malformed reclaim: %v (closing connection)", c.conn.RemoteAddr(), err)
			return true
		}
		// The restart handshake: re-bind a ledger-held name (a grant that
		// survived a server restart) to this connection, so it can be
		// released here. Flush the burst first so a preceding release of
		// the same name is observed, matching one-at-a-time semantics.
		s.submitBurst(c, in)
		if !s.admitWrite(in, tag) {
			return false
		}
		in.w.Reset()
		if err := s.reclaim(c, client, name); err != nil {
			appendReject(&in.w, tag, RejectNotHeld, err.Error())
		} else {
			appendReclaimed(&in.w, tag)
		}
		in.pushResp()
	default:
		s.cfg.Logf("%v: unknown op %d (closing connection)", c.conn.RemoteAddr(), op)
		return true
	}
	return false
}

// reclaim re-binds a name the ledger records as held by client to c. The
// name's stripe is held across the service call: a successful reclaim must
// install c as the binding authority — stealing the name out of the
// previous connection's list — before a racing teardown of that connection
// can release the name out from under it.
func (s *Server) reclaim(c *svcConn, client uint64, name int) error {
	shard, err := s.svc.ShardOfName(name)
	if err != nil {
		return err
	}
	stripe := &s.bound.stripes[shard]
	stripe.Lock()
	defer stripe.Unlock()
	if err := s.svc.Reclaim(client, name); err != nil {
		return err
	}
	s.bound.bind(c, shard, name, client)
	return nil
}

// admitWrite consults the commit gate before a write op joins the burst:
// on a node that does not serve writes (a replication follower) the op is
// rejected with RejectNotLeader whose message is the leader's client
// address — the redirect hint. True means proceed.
func (s *Server) admitWrite(in *ingest, tag uint64) bool {
	g := s.cfg.Gate
	if g == nil {
		return true
	}
	ok, leader := g.AdmitWrites()
	if ok {
		return true
	}
	in.w.Reset()
	appendReject(&in.w, tag, RejectNotLeader, leader)
	in.pushResp()
	return false
}

// admitRead applies the replication gate's read lease to a stats or
// journal op: a lease-stale leader rejects the read with RejectNotLeader
// rather than answer from possibly-deposed state.
func (s *Server) admitRead(in *ingest, tag uint64) bool {
	if s.repl == nil || s.repl.ReadLeaseValid() {
		return true
	}
	in.w.Reset()
	appendReject(&in.w, tag, RejectNotLeader, "")
	in.pushResp()
	return false
}

// submitBurst pushes one decoded burst into the service: releases first
// (bucketed by shard, validated against the binding table and unbound under
// that shard's stripe, one ReleaseBatch per shard), then acquires
// (registered against the outstanding cap under one lock, one AcquireBatch
// per shard), then the burst's response frames in one outbox append, with
// one epoch-loop kick per touched shard. Freed capacity is visible to the
// service before the new acquires queue, exactly as in one-at-a-time
// submission.
func (s *Server) submitBurst(c *svcConn, in *ingest) {
	if in.frames == 0 && len(in.resp) == 0 {
		return
	}
	if len(in.relTag) > 0 {
		for i, name := range in.relName {
			shard, err := s.svc.ShardOfName(name)
			if err != nil {
				s.rejectNotHeld(in, i)
				continue
			}
			in.rel[shard] = append(in.rel[shard], ReleaseOp{Name: name})
			in.relIdx[shard] = append(in.relIdx[shard], i)
		}
		for shard := range in.rel {
			if len(in.rel[shard]) == 0 {
				continue
			}
			// Only names whose entry still names this connection are its to
			// release; unbinding them is what makes a second release of the
			// same name (in this burst or a later one) NotHeld. The stripe
			// stays held across the service call, so no reclaim can bind a
			// name between its unbinding here and its release in the ledger.
			ops, idx := in.rel[shard], in.relIdx[shard]
			stripe := &s.bound.stripes[shard]
			stripe.Lock()
			kept := 0
			for j, op := range ops {
				e := &s.bound.entries[op.Name]
				if e.conn != c {
					s.rejectNotHeld(in, idx[j])
					continue
				}
				op.Client = e.client
				s.bound.unbind(shard, op.Name)
				ops[kept], idx[kept] = op, idx[j]
				kept++
			}
			ops, idx = ops[:kept], idx[:kept]
			if kept == 0 {
				stripe.Unlock()
				continue
			}
			errs, err := s.svc.ReleaseBatch(shard, ops, in.errs[:0])
			in.errs = errs[:0]
			if err != nil {
				// The shard has failed (the failure policy in
				// durability.go): no release in the bucket is on its disk,
				// so the connection still holds every name — restore them
				// and reject each request, mirroring the acquire path below.
				for _, op := range ops {
					s.bound.bind(c, shard, op.Name, op.Client)
				}
				stripe.Unlock()
				s.cfg.Logf("%v: release batch on shard %d: %v", c.conn.RemoteAddr(), shard, err)
				for j := range ops {
					in.w.Reset()
					appendReject(&in.w, in.relTag[idx[j]], RejectInternal, err.Error())
					in.pushResp()
				}
				continue
			}
			stripe.Unlock()
			for j, e := range errs {
				in.w.Reset()
				if e != nil {
					appendReject(&in.w, in.relTag[idx[j]], RejectInternal, e.Error())
				} else {
					appendReleased(&in.w, in.relTag[idx[j]])
				}
				in.pushResp()
			}
			s.kick(shard) // freed capacity may unblock queued acquires
		}
	}
	if len(in.acqTag) > 0 {
		c.mu.Lock()
		for i := range in.acqTag {
			if len(c.outstanding) >= s.cfg.MaxOutstanding {
				in.acqReq = append(in.acqReq, nil)
				continue
			}
			var req *connReq
			if n := len(c.freeReqs); n > 0 {
				req = c.freeReqs[n-1]
				c.freeReqs = c.freeReqs[:n-1]
			} else {
				req = &connReq{c: c}
			}
			req.tag = in.acqTag[i]
			req.client = in.acqCli[i]
			req.id = 0
			req.pos = len(c.outstanding)
			c.outstanding = append(c.outstanding, req)
			in.acqReq = append(in.acqReq, req)
		}
		c.mu.Unlock()
		for i, req := range in.acqReq {
			if req == nil {
				in.w.Reset()
				appendReject(&in.w, in.acqTag[i], RejectBusy, "too many outstanding acquires")
				in.pushResp()
				continue
			}
			shard := s.svc.Shard(req.client)
			in.acq[shard] = append(in.acq[shard], AcquireOp{Client: req.client, Notify: req})
		}
		for shard := range in.acq {
			if len(in.acq[shard]) == 0 {
				continue
			}
			ids, err := s.svc.AcquireBatch(shard, in.acq[shard], in.ids[:0])
			in.ids = ids[:0]
			if err != nil {
				// The shard has failed (the failure policy in
				// durability.go): unregister and reject the bucket.
				s.cfg.Logf("%v: acquire batch on shard %d: %v", c.conn.RemoteAddr(), shard, err)
				c.mu.Lock()
				for _, op := range in.acq[shard] {
					req := op.Notify.(*connReq)
					if !c.dead {
						c.dropOutstandingLocked(req)
					}
					in.w.Reset()
					appendReject(&in.w, req.tag, RejectInternal, err.Error())
					in.pushResp()
				}
				c.mu.Unlock()
				continue
			}
			s.kick(shard)
		}
	}
	c.enqueue(in.resp)
	in.reset()
}

// rejectNotHeld answers the burst's i-th release with RejectNotHeld: the
// name is outside the namespace, unbound, or bound to another connection.
func (s *Server) rejectNotHeld(in *ingest, i int) {
	in.w.Reset()
	appendReject(&in.w, in.relTag[i], RejectNotHeld,
		fmt.Sprintf("name %d is not held by this connection", in.relName[i]))
	in.pushResp()
}
