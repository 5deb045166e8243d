package namesvc

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ballsintoleaves/internal/wire"
)

// Epoch loops, manual epoch closes and each shard's delivery pipeline.
// Locks, in ARCHITECTURE's "Lock order, stated once": manualMu (taken
// holding nothing) → the delivery lock, shardDelivery.mu (the epoch loop
// holds it across CloseEpoch, the deliverer takes it to swap) → the shard
// lock. The commit step (commitGrants: binding stripe → c.mu) and both of
// delivery's waits hold no other lock, but manualMu on a manual close.

// maxStagedGrants is each shard's pipeline window: the epoch loop stops
// closing epochs while this many closed-but-undelivered grants are staged
// behind the batch in flight, bounding the delivery scratch and the backlog
// ahead of a drain's first epoch.
const maxStagedGrants = 4096

// closeManualEpoch closes exactly one epoch on a shard and delivers its
// grants — the server half of the epoch op. With no epoch loop and no
// deliverer, the manual mutex makes the read loop that sent the op the
// shard's only deliverer: it swaps pend into fly and delivers it itself,
// waits included, so every grant frame of the epoch is committed to its
// outbox before the reply is encoded.
func (s *Server) closeManualEpoch(shard int) (epoch uint64, granted int, err error) {
	s.manualMu[shard].Lock()
	defer s.manualMu[shard].Unlock()
	grants, err := s.svc.CloseEpoch(shard)
	granted = len(grants)
	d := &s.deliver[shard]
	d.pend, d.fly = d.fly, d.pend
	s.deliverFly(shard)
	return s.svc.ShardEpoch(shard), granted, err
}

// epochLoop drives the stripe of shards loop w owns (w, w+workers, …): on a
// kick it drains every owned shard in turn, so when shards outnumber cores a
// burst touching several shards costs one goroutine handoff, not one per
// shard (checking a quiet shard is one short lock acquisition). It closes
// epochs as soon as it is kicked; arrivals during one epoch's run form the
// next batch (and drainShard's yield lets a racing burst join this one).
func (s *Server) epochLoop(w int) {
	defer s.wg.Done()
	shards := s.svc.Shards()
	defer func() {
		// Nothing more will be staged: let each owned shard's deliverer
		// drain pend and exit.
		for shard := w; shard < shards; shard += s.workers {
			d := &s.deliver[shard]
			d.mu.Lock()
			d.stop = true
			d.cond.Broadcast()
			d.mu.Unlock()
		}
	}()
	for {
		select {
		case <-s.stop:
			return
		case <-s.kicks[w]:
		}
		for shard := w; shard < shards; shard += s.workers {
			s.drainShard(shard)
		}
	}
}

// drainShard closes epochs on one shard until nothing more can be
// assigned — requests that queued during an epoch's renaming run form the
// next batch without another kick. It only stages; the shard's deliverer
// takes whatever one delivery left staged in its next.
func (s *Server) drainShard(shard int) {
	for {
		// Yield once before closing: a kick often races the rest of the
		// kicker's burst (and other connections' bursts) through
		// ingestion, and on a loaded machine one scheduler pass lets
		// those arrivals join this epoch instead of fragmenting into
		// the next — micro-batching without a timer. Idle systems pay
		// nanoseconds.
		runtime.Gosched()
		granted, err := s.closeStaged(shard)
		if err != nil {
			// The batch stays queued; log and wait for the next kick
			// rather than spinning on a persistent failure.
			s.cfg.Logf("shard %d: epoch failed: %v", shard, err)
			return
		}
		if granted > 0 {
			continue
		}
		// No accepted grants — but an epoch may still have run with
		// every grant absorbed (the whole batch's connections died),
		// leaving later arrivals queued with nobody left to kick.
		// Keep draining while another epoch could assign; stop when
		// the queue is empty or the namespace is exhausted (a release
		// will kick us) — or the server is closing.
		if !s.svc.EpochRunnable(shard) || s.stopping() {
			return
		}
	}
}

// closeStaged closes one epoch on a shard, its accepted grants staging into
// the shard's pend batch (connReq.GrantNotify), and reports how many were
// accepted. It holds the delivery lock, so the deliverer swaps pend away
// between epochs, never during one; it waits for room in the window first
// (whatever queues meanwhile forms one larger epoch) and wakes the deliverer
// after.
func (s *Server) closeStaged(shard int) (granted int, err error) {
	d := &s.deliver[shard]
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.pend.staged) >= maxStagedGrants {
		if s.stopping() {
			return 0, nil
		}
		d.cond.Wait()
	}
	grants, err := s.svc.CloseEpoch(shard)
	if len(grants) > 0 || err != nil || d.parked.Load() {
		// A failed shard may have staged refused requests or grants for
		// the deliverer to discard; a deliverer waiting for the answers
		// must see every epoch close, one that absorbed all its grants too.
		d.cond.Broadcast()
	}
	return len(grants), err
}

// stagedGrant is one accepted grant awaiting delivery, linked to the next
// staged grant of the same connection.
type stagedGrant struct {
	req  *connReq
	g    Grant
	next int32
}

// grantRun is one connection's chain of staged grants within a batch.
type grantRun struct {
	conn       *svcConn
	head, tail int32
}

// grantBatch is a set of accepted grants awaiting delivery, in epoch order,
// chained per destination connection. Everything is reused batch to batch.
type grantBatch struct {
	staged  []stagedGrant
	runs    []grantRun
	byConn  map[*svcConn]int32 // conn -> index into runs
	refused bool               // holds requests a failed shard refused (connReq.Refused)
}

func newGrantBatch() *grantBatch {
	return &grantBatch{byConn: make(map[*svcConn]int32)}
}

// stage links one accepted grant onto its connection's run.
func (b *grantBatch) stage(r *connReq, g Grant) {
	idx := int32(len(b.staged))
	b.staged = append(b.staged, stagedGrant{req: r, g: g, next: -1})
	if ri, ok := b.byConn[r.c]; ok {
		b.staged[b.runs[ri].tail].next = idx
		b.runs[ri].tail = idx
	} else {
		b.byConn[r.c] = int32(len(b.runs))
		b.runs = append(b.runs, grantRun{conn: r.c, head: idx, tail: idx})
	}
}

func (b *grantBatch) reset() {
	b.staged = b.staged[:0]
	b.runs = b.runs[:0]
	clear(b.byConn)
	b.refused = false
}

// shardDelivery is one shard's delivery stage: a double buffer of grant
// batches, the same pend/fly pattern as a connection's outbox. CloseEpoch's
// grant notifies stage accepted grants into pend, under the shard lock. The
// deliverer swaps pend with fly, waits once for the gate to commit the whole
// fly batch (no wait without a gate), then commits each connection's run —
// its frames encoded contiguously, appended to its outbox under one lock,
// with one writer wakeup — while the epoch loop stages the next epochs into
// pend. mu guards pend; fly and the scratch belong to the deliverer (to the
// manual closer, under ManualEpochs).
type shardDelivery struct {
	mu   sync.Mutex
	cond sync.Cond // pend gained grants, pend was swapped away, or stop
	stop bool      // the epoch loop has exited; drain pend and exit
	pend *grantBatch

	fly    *grantBatch
	w      wire.Writer    // frame-body encode scratch
	buf    []byte         // contiguous frames for the run being built
	rel    []Grant        // grants to release (recipient gone mid-flight)
	pickup sync.WaitGroup // the writer a commit woke, until it takes its batch

	// Flush after the answers (servers with a commit gate and an epoch
	// loop; see deliverLoop). answers, lastWait, deadline and since belong
	// to the deliverer; parked and the counts are set under mu.
	answers  []*svcConn // connections the last delivery reached, not yet heard from
	lastWait time.Duration
	deadline time.Time   // the last delivery's end plus half of lastWait
	since    uint64      // Server.swaps when the last delivery ended
	parked   atomic.Bool // the deliverer waits for answers: bursts and closes wake it
	timer    *time.Timer // wakes the deliverer at deadline
	waits    uint64      // waits for answers that parked the deliverer
	bounded  uint64      // of those, the ones the deadline ended
}

// deliverLoop is a shard's deliverer: take everything the epoch loop has
// staged, wait for its commit, deliver it, repeat. At most one commit wait
// per shard is ever in flight, always from here. It exits once the epoch
// loop has and pend is drained, so grants staged for connections that died
// with the server are still released.
//
// Wake, then wait: it goes on toward its next commit wait only once every
// writer this delivery woke from its idle wait has taken its outbox batch.
// A commit wait can be a blocking fsync, and a goroutine blocked in a system
// call keeps its processor — with the writer it just readied there — until
// the runtime's monitor retakes it, up to 10 ms on a partly idle process. A
// writer busy in a Write to a slow reader was not woken and is never waited
// on.
//
// …then wait for the answers (behind a gate): a client that was just
// granted a name often asks again at once, and its next acquire, closed
// into an epoch a moment after the next commit wait began, would sit out
// that whole wait. So before it swaps pend into flight the deliverer waits
// until every connection its last delivery reached has submitted a burst
// since (or closed) and the shard has no runnable queued acquire, so the
// epoch those answers feed has closed and staged. Half of the last commit
// wait after that delivery ended, it stops waiting, so a client that never
// answers stalls nobody for long; it never waits on a full window (the
// epoch loop would be waiting on it) or once the server stops.
//
// …from every shard the connection waits on: a connection whose bursts feed
// several shards has answered a delivery only once every batch for it that
// another shard took into flight before that delivery ended has landed, and
// it has answered that too; the bound runs from the landing. So the shards
// such connections share swap after the same answers and start their
// flushes together, while a shard whose connections no other shard serves
// keeps its own pace.
func (s *Server) deliverLoop(shard int) {
	defer s.wg.Done()
	d := &s.deliver[shard]
	for {
		d.mu.Lock()
		for len(d.pend.staged) == 0 && !d.stop {
			d.cond.Wait()
		}
		if len(d.pend.staged) == 0 {
			d.mu.Unlock()
			return
		}
		if len(d.answers) > 0 {
			s.awaitAnswersLocked(shard)
		}
		d.pend, d.fly = d.fly, d.pend
		d.cond.Broadcast() // room in the window
		d.mu.Unlock()
		if s.answerWait {
			s.markFlying(shard, d.fly, s.swaps.Add(1))
		}
		s.deliverFly(shard)
	}
}

// markFlying records, on each connection the batch holds grants for, the
// swap sequence number under which the shard took it into flight; 0 marks
// it landed.
func (s *Server) markFlying(shard int, b *grantBatch, seq uint64) {
	for i := range b.runs {
		b.runs[i].conn.flying[shard].Store(seq)
	}
}

// awaitAnswersLocked is deliverLoop's wait for the answers; d.mu is held,
// and released while it waits. parked is set before the conditions are
// read, so a burst counted after the read finds it set and wakes the
// deliverer (wakeAnswerWaiters) once it waits.
func (s *Server) awaitAnswersLocked(shard int) {
	d := &s.deliver[shard]
	d.parked.Store(true)
	armed := false
	for !d.stop && len(d.pend.staged) < maxStagedGrants && !s.stopping() {
		done, landing := d.answeredLocked(shard)
		if done && !s.svc.EpochRunnable(shard) {
			break
		}
		if landing {
			// Another shard's batch is still on its way to a connection
			// this delivery reached: the bound runs from its landing, so
			// shards out of step fall back into it.
			d.deadline = time.Now().Add(d.lastWait / 2)
		}
		left := time.Until(d.deadline)
		if left <= 0 {
			if armed {
				d.bounded++
			}
			break
		}
		if !armed {
			armed = true
			d.waits++
		}
		d.timer.Reset(left)
		d.cond.Wait()
	}
	if armed {
		d.timer.Stop()
	}
	d.parked.Store(false)
	clear(d.answers)
	d.answers = d.answers[:0]
}

// answeredLocked drops the connections that have answered — submitted a
// burst since the latest delivery that reached them on any shard, with no
// batch for them that another shard took into flight before this shard's
// delivery ended still on its way — or closed. It reports whether none is
// left, and whether one is left waiting for such a batch.
func (d *shardDelivery) answeredLocked(shard int) (done, landing bool) {
	kept := d.answers[:0]
	for _, c := range d.answers {
		if c.gone.Load() {
			continue
		}
		if c.flyingBefore(shard, d.since) {
			landing = true
		} else if c.bursts.Load() != c.marked.Load() {
			continue
		}
		kept = append(kept, c)
	}
	clear(d.answers[len(kept):])
	d.answers = kept
	return len(kept) == 0, landing
}

// wakeAnswerWaiters wakes every deliverer waiting for answers: a
// connection has just submitted a burst or closed.
func (s *Server) wakeAnswerWaiters() {
	for i := range s.deliver {
		d := &s.deliver[i]
		if d.parked.Load() {
			d.mu.Lock()
			d.cond.Broadcast()
			d.mu.Unlock()
		}
	}
}

// deliverFly commits the shard's fly batch — the staged grants of one or
// more epochs, in epoch order — one connection at a time: frames are
// encoded outside any lock, then commitGrants appends them to the
// connection's outbox, binds the names to it and retires their requests
// under a single lock with a single cond-signal. Grants whose connection
// vanished between the in-epoch accept and this commit are released here —
// the name returns to the pool having never been observable on the wire.
//
// A commit that wakes a parked writer is followed at once by a wait until
// that writer has taken its batch (see deliverLoop): the wakeup put it in
// this processor's next-to-run slot, so parking here runs it. One wait after
// the whole batch would queue every writer but the last behind the rest.
// Behind a gate (and with an epoch loop) each connection reached is marked
// for the wait for the answers (deliverLoop), on this shard and on any other
// whose last delivery reached it.
func (s *Server) deliverFly(shard int) {
	d := &s.deliver[shard]
	b := d.fly
	if len(b.staged) == 0 {
		return
	}
	if g := s.cfg.Gate; g != nil {
		// The commit rule: nothing reaches a client until the gate says the
		// shard's records are committed; one wait covers the whole batch.
		// A batch holding requests the shard refused was swapped in after
		// the shard failed, so a gate that consults SyncShard (both
		// built-in ones do) fails it; any other gate's nil cannot cover
		// them, as they have no record, and the batch is discarded all
		// the same. A shard that fails later is not checked here: the
		// grants this wait covered did commit.
		begin := time.Now()
		err := g.WaitCommitted(shard)
		if err == nil && b.refused {
			err = s.svc.shards[shard].refusal()
		}
		if err != nil {
			if s.answerWait {
				s.markFlying(shard, b, 0)
				s.wakeAnswerWaiters()
			}
			s.discard(shard, err)
			return
		}
		d.lastWait = time.Since(begin)
	}
	released := false
	for i := range b.runs {
		run := &b.runs[i]
		d.buf = d.buf[:0]
		for j := run.head; j >= 0; j = b.staged[j].next {
			sg := &b.staged[j]
			d.w.Reset()
			appendGrant(&d.w, sg.req.tag, sg.g)
			d.buf = wire.AppendFrame(d.buf, d.w.Bytes())
		}
		if s.answerWait {
			// Marked before the commit: no burst before it can answer it.
			run.conn.markDelivered()
			d.answers = append(d.answers, run.conn)
		}
		d.rel = run.conn.commitGrants(shard, b, run.head, d.buf, d.rel[:0])
		if s.answerWait {
			run.conn.flying[shard].Store(0)
		}
		d.pickup.Wait()
		for _, g := range d.rel {
			if err := s.svc.Release(g.Client, g.Name); err != nil {
				s.cfg.Logf("%v: releasing undeliverable grant of %d: %v",
					run.conn.conn.RemoteAddr(), g.Name, err)
				continue
			}
			released = true
		}
	}
	b.reset()
	if s.answerWait {
		d.deadline = time.Now().Add(d.lastWait / 2)
		d.since = s.swaps.Load()
		s.wakeAnswerWaiters() // a deliverer may be waiting for this batch to land
	}
	if released {
		// The freed capacity may be the only thing standing between queued
		// acquires and an exhausted shard, and the drain that staged these
		// grants has already sampled EpochRunnable — re-kick so the epoch
		// loop observes the returns (teardown does the same for held
		// names).
		s.kick(shard)
	}
}

// discard answers the grants of a commit wait that failed — the fly batch
// and whatever later epochs staged behind it — with rejects instead: the
// node was deposed with them in flight, or the shard has failed. No client
// ever observed any of them, so a new leader may re-grant the names; the
// catch-up resync that follows deposition repairs the local ledger. A
// failed shard's requests get RejectInternal carrying its failure, and the
// shard is kicked so its epoch loop refuses, and so answers, whatever is
// still queued on it; a deposed node's get RejectNotLeader with the leader
// hint, so a Session retries at the new leader.
func (s *Server) discard(shard int, err error) {
	d := &s.deliver[shard]
	code, msg := RejectInternal, err.Error()
	failure := s.svc.shards[shard].refusal()
	if failure != nil {
		msg = failure.Error()
	} else {
		_, leader := s.cfg.Gate.AdmitWrites()
		code, msg = RejectNotLeader, leader
	}
	n := len(d.fly.staged)
	s.rejectFly(shard, code, msg)
	// Take pend as it stands into flight, and reset each buffer under mu,
	// so a reader under the lock sees both empty once the discard is done.
	d.mu.Lock()
	d.fly.reset()
	d.pend, d.fly = d.fly, d.pend
	d.cond.Broadcast() // room in the window
	d.mu.Unlock()
	n += len(d.fly.staged)
	s.rejectFly(shard, code, msg)
	d.mu.Lock()
	d.fly.reset()
	d.mu.Unlock()
	s.cfg.Logf("shard %d: discarding %d staged grants: %v", shard, n, err)
	if failure != nil {
		s.kick(shard)
	}
}

// rejectFly answers every request of the fly batch with one reject, a
// connection's frames committed to its outbox under one lock.
func (s *Server) rejectFly(shard int, code RejectCode, msg string) {
	d := &s.deliver[shard]
	b := d.fly
	for i := range b.runs {
		run := &b.runs[i]
		d.buf = d.buf[:0]
		for j := run.head; j >= 0; j = b.staged[j].next {
			d.w.Reset()
			appendReject(&d.w, b.staged[j].req.tag, code, msg)
			d.buf = wire.AppendFrame(d.buf, d.w.Bytes())
		}
		run.conn.commitRejects(b, run.head, d.buf)
	}
}
