package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/rng"
)

// load is one run's traffic against one cluster: the client connections,
// the table of names the harness holds, and what one measure window saw.
// Every operation goes over real TCP through namesvc.Client; the service
// receives nothing but the generated traffic.
type load struct {
	w     workload
	cfg   runConfig
	base  time.Time               // clock origin, shared with the tracer
	tr    *tracer                 // nil on an untraced run
	route func(client uint64) int // the service's client → shard router
	conns []*loadConn

	// active[name] is 1 while the harness holds name — standing population
	// included — so a second grant of a held name is caught whoever holds it.
	active []atomic.Uint32
	dups   atomic.Int64

	// The measure window, in ns since base, cut into windows of cfg.window.
	// Set once, before the issuing goroutines start.
	mStart  int64
	windows int
	stop    atomic.Bool
	failed  atomic.Int64 // acquires that ended in an error or a reject, in the window
}

// loadConn is one client connection and its issuing goroutine.
type loadConn struct {
	l     *load
	id    int
	c     *namesvc.Client
	ids   *rng.Source // client-ID stream
	slots []*slot
	// comp hands finished acquires from the client's read goroutine to the
	// issuing goroutine; a slot is in it at most once, so it never blocks.
	comp chan *slot
	held []int // standing population held on this connection

	// Owned by the client's read goroutine.
	lat    []uint32 // acquire→grant latencies in ns, in completion order
	winEnd []int    // winEnd[w] = len(lat) when window w closed

	// Owned by the issuing goroutine.
	issued              int64    // open loop: arrivals sent that were due in the window
	inflightMax         int      // open loop: most acquires in flight at once, in the window
	late                []uint32 // open loop: actual minus scheduled send time, ns
	submitNs, submitOps int64    // traced: time inside Acquire, Release and Flush
}

// slot is one in-flight acquire. Its callback is built once, so the steady
// state allocates nothing per operation.
type slot struct {
	t0   int64 // when the acquire was sent (closed loop) or due (open loop)
	name int   // the grant to release; 0 after a failed acquire
	cb   func(namesvc.Grant, error)
}

func (l *load) now() int64 { return int64(time.Since(l.base)) }

// windowOf maps a time to its measure window, or -1 outside the window.
func (l *load) windowOf(t int64) int {
	if t < l.mStart {
		return -1
	}
	if w := int((t - l.mStart) / int64(l.cfg.window)); w < l.windows {
		return w
	}
	return -1
}

func clampU32(ns int64) uint32 {
	return uint32(max(0, min(ns, math.MaxUint32)))
}

// dialLoad opens the client connections to the serving node.
func dialLoad(w workload, cfg runConfig, base time.Time, tr *tracer, c *cluster) (*load, error) {
	l := &load{
		w: w, cfg: cfg, base: base, tr: tr,
		route:  c.nodes[0].svc.Shard,
		active: make([]atomic.Uint32, serviceShards*cfg.shardCap+1),
	}
	inflight := closedInflight
	if w.pacedRate > 0 {
		inflight = pacedInflight
	}
	for i := 0; i < loadConns; i++ {
		cl, err := namesvc.Dial(c.addr(), namesvc.ClientConfig{})
		if err != nil {
			l.close()
			return nil, err
		}
		lc := &loadConn{
			l: l, id: i, c: cl,
			ids:  rng.Derive(cfg.seed, uint64(1+i)),
			comp: make(chan *slot, inflight),
		}
		l.conns = append(l.conns, lc)
		if w.nodes > 1 && cl.Role() != namesvc.RoleLeader {
			l.close()
			return nil, fmt.Errorf("node 0 welcomed connection %d as %v, want leader", i, cl.Role())
		}
		for j := 0; j < inflight; j++ {
			s := &slot{}
			s.cb = func(g namesvc.Grant, err error) { lc.onGrant(s, g, err) }
			lc.slots = append(lc.slots, s)
		}
	}
	return l, nil
}

func (l *load) close() {
	for _, lc := range l.conns {
		lc.c.Close()
		lc.c.Wait()
	}
}

func (lc *loadConn) nextID() uint64 {
	for {
		if id := lc.ids.Uint64(); id != 0 {
			return id
		}
	}
}

// claim marks a granted name held; a name already held is a duplicate grant.
func (l *load) claim(name int) {
	if !l.active[name].CompareAndSwap(0, 1) {
		l.dups.Add(1)
	}
}

// ---- standing population ----

// prefill builds the standing population: the connections acquire every
// name, then release a seeded random quarter of what they hold on each
// shard. Three quarters of the namespace stay held for the whole run and the
// free names lie scattered across both shards, so free-pool walks and
// snapshots have realistic sizes.
func (l *load) prefill() error {
	errs := make(chan error, len(l.conns))
	for _, lc := range l.conns {
		go func() { errs <- lc.prefill() }()
	}
	var first error
	for range l.conns {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first == nil && l.dups.Load() > 0 {
		first = fmt.Errorf("prefill saw %d duplicate grants", l.dups.Load())
	}
	return first
}

func (lc *loadConn) prefill() error {
	l := lc.l
	// Each connection takes an equal share of every shard, so between them
	// the acquires fill each shard exactly; one more would queue forever.
	quota := l.cfg.shardCap / loadConns
	total := quota * serviceShards
	drawn := make([]int, serviceShards)
	ids := make([]uint64, 0, total)
	for len(ids) < total {
		id := lc.nextID()
		if sh := l.route(id); drawn[sh] < quota {
			drawn[sh]++
			ids = append(ids, id)
		}
	}

	// granted, failed and left belong to the read goroutine while a wave is
	// in flight; the close of done hands them back.
	granted := make([]int, 0, total)
	var failed error
	for len(ids) > 0 {
		wave := ids[:min(prefillWave, len(ids))]
		ids = ids[len(wave):]
		left := len(wave)
		done := make(chan struct{})
		cb := func(g namesvc.Grant, err error) {
			if err != nil {
				failed = err
			} else {
				l.claim(g.Name)
				granted = append(granted, g.Name)
			}
			if left--; left == 0 {
				close(done)
			}
		}
		for _, id := range wave {
			if err := lc.c.Acquire(id, cb); err != nil {
				return fmt.Errorf("prefill acquire: %w", err)
			}
		}
		if err := lc.c.Flush(); err != nil {
			return fmt.Errorf("prefill flush: %w", err)
		}
		<-done
		if failed != nil {
			return fmt.Errorf("prefill acquire: %w", failed)
		}
	}

	byShard := make([][]int, serviceShards)
	for _, name := range granted {
		sh := (name - 1) / l.cfg.shardCap
		byShard[sh] = append(byShard[sh], name)
	}
	pick := rng.Derive(l.cfg.seed, uint64(101+lc.id))
	var release []int
	for _, names := range byShard {
		// Which names this connection was granted depends on how the epochs
		// fell; sorting first makes the released set a function of the seed
		// and the held set alone.
		slices.Sort(names)
		pick.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		q := len(names) / 4
		release = append(release, names[:q]...)
		lc.held = append(lc.held, names[q:]...)
	}
	return lc.releaseNames(release)
}

// releaseNames releases the names and waits for every acknowledgement.
func (lc *loadConn) releaseNames(names []int) error {
	if len(names) == 0 {
		return nil
	}
	left := len(names) // read goroutine's, until done closes
	var failed error
	done := make(chan struct{})
	cb := func(err error) {
		if err != nil {
			failed = err
		}
		if left--; left == 0 {
			close(done)
		}
	}
	for _, name := range names {
		lc.l.active[name].Store(0)
		if err := lc.c.Release(name, cb); err != nil {
			return fmt.Errorf("release: %w", err)
		}
	}
	if err := lc.c.Flush(); err != nil {
		return fmt.Errorf("release flush: %w", err)
	}
	<-done
	if failed != nil {
		return fmt.Errorf("release: %w", failed)
	}
	return nil
}

// releaseAll returns the standing population. The issuing goroutines have
// already released every grant of the run.
func (l *load) releaseAll() error {
	for _, lc := range l.conns {
		if err := lc.releaseNames(lc.held); err != nil {
			return err
		}
		lc.held = nil
	}
	return nil
}

// ---- the measured traffic ----

// run drives the load from now until the measure window ends: warm-up, then
// `windows` windows. atStart and atEnd run at the measure window's edges. It
// returns once every in-flight acquire has finished and been released.
func (l *load) run(windows int, atStart, atEnd func()) {
	l.windows = windows
	l.mStart = l.now() + int64(l.cfg.warmup)
	mEnd := l.mStart + int64(windows)*int64(l.cfg.window)
	var wg sync.WaitGroup
	for _, lc := range l.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if l.w.pacedRate > 0 {
				lc.runPaced(l.w.pacedRate / loadConns)
			} else {
				lc.runClosed()
			}
		}()
	}
	time.Sleep(time.Duration(l.mStart - l.now()))
	atStart()
	time.Sleep(time.Duration(mEnd - l.now()))
	atEnd()
	l.stop.Store(true)
	wg.Wait()
	for _, lc := range l.conns {
		lc.closeWindows(windows)
	}
}

// onGrant runs on the client's read goroutine for every finished acquire.
func (lc *loadConn) onGrant(s *slot, g namesvc.Grant, err error) {
	l := lc.l
	end := l.now()
	w := l.windowOf(end)
	if err != nil {
		s.name = 0
		if w >= 0 {
			l.failed.Add(1)
		}
	} else {
		s.name = g.Name
		l.claim(g.Name)
		if w >= 0 {
			lc.closeWindows(w)
			lc.lat = append(lc.lat, clampU32(end-s.t0))
			if l.tr != nil {
				l.tr.record(spanAcquire, span{start: s.t0, end: end, id: int32(lc.id)})
			}
		}
	}
	lc.comp <- s
}

// closeWindows closes every window before w.
func (lc *loadConn) closeWindows(w int) {
	for len(lc.winEnd) < w {
		lc.winEnd = append(lc.winEnd, len(lc.lat))
	}
}

// submitStart and submitEnd bracket one client call on a traced run, adding
// its duration to submitNs; untraced they cost one nil check.
func (lc *loadConn) submitStart() int64 {
	if lc.l.tr == nil {
		return 0
	}
	return lc.l.now()
}

func (lc *loadConn) submitEnd(start int64) {
	if lc.l.tr != nil {
		lc.submitNs += lc.l.now() - start
	}
}

// acquire sends one acquire on the slot; false means the connection is dead.
func (lc *loadConn) acquire(s *slot, t0 int64) bool {
	s.t0 = t0
	id := lc.nextID()
	lc.submitOps++
	start := lc.submitStart()
	err := lc.c.Acquire(id, s.cb)
	lc.submitEnd(start)
	if err != nil {
		if lc.l.windowOf(t0) >= 0 {
			lc.l.failed.Add(1)
		}
		return false
	}
	return true
}

// release returns the slot's grant, if its acquire produced one. The name
// is marked free first: once the server has the release it may grant the
// name to anyone. A release that fails leaves the name assigned, which the
// Assigned == 0 check after the run reports.
func (lc *loadConn) release(s *slot) {
	if s.name == 0 {
		return
	}
	lc.l.active[s.name].Store(0)
	start := lc.submitStart()
	lc.c.Release(s.name, nil)
	lc.submitEnd(start)
	s.name = 0
}

func (lc *loadConn) flush() {
	start := lc.submitStart()
	lc.c.Flush()
	lc.submitEnd(start)
}

// runClosed is the closed loop: every slot keeps one acquire in flight, and
// each grant is released and replaced at once. Finished acquires are drained
// in batches; when the channel runs dry the batch is flushed and the
// goroutine yields, so on a small box it neither strands requests in the
// write buffer nor starves the read goroutine (cmd/blload's driver shape).
func (lc *loadConn) runClosed() {
	idle := 0
	for _, s := range lc.slots {
		if !lc.acquire(s, lc.l.now()) {
			idle++
		}
	}
	lc.flush()
	for idle < len(lc.slots) {
		s := <-lc.comp
		for more := true; more; {
			lc.release(s)
			if lc.l.stop.Load() || !lc.acquire(s, lc.l.now()) {
				idle++
			}
			select {
			case s = <-lc.comp:
			default:
				more = false
			}
		}
		lc.flush()
		runtime.Gosched()
	}
}

// runPaced is the open loop: acquires are due on a seeded Poisson schedule
// whatever the server does, each timed from when it was due, and each grant
// is released at once. An arrival that finds every slot in flight waits for
// one — still timed from when it was due, so the stall that filled the slots
// is charged to every request it delayed, and none is dropped.
func (lc *loadConn) runPaced(rate float64) {
	l := lc.l
	arrivals := rng.Derive(l.cfg.seed, uint64(201+lc.id))
	gap := func() int64 { return int64(-math.Log(1-arrivals.Float64()) / rate * 1e9) }
	free := append([]*slot(nil), lc.slots...)
	due := l.now() + gap()
	timer := time.NewTimer(0)
	defer timer.Stop()
	for !l.stop.Load() {
		now := l.now()
		for ; due <= now && len(free) > 0; due += gap() {
			s := free[len(free)-1]
			free = free[:len(free)-1]
			if !lc.acquire(s, due) {
				free = append(free, s)
			}
			if l.windowOf(due) >= 0 {
				lc.issued++
				lc.late = append(lc.late, clampU32(now-due))
				lc.inflightMax = max(lc.inflightMax, len(lc.slots)-len(free))
			}
		}
		lc.flush()
		// Sleep until the next arrival is due. With every slot in flight only
		// a finished acquire helps, and the timer just polls the stop flag.
		wait := max(0, due-l.now())
		if len(free) == 0 {
			wait = max(wait, int64(time.Millisecond))
		}
		timer.Reset(time.Duration(wait))
		select {
		case s := <-lc.comp:
			for more := true; more; {
				lc.release(s)
				free = append(free, s)
				select {
				case s = <-lc.comp:
				default:
					more = false
				}
			}
			lc.flush()
		case <-timer.C:
		}
	}
	for len(free) < len(lc.slots) {
		s := <-lc.comp
		lc.release(s)
		free = append(free, s)
	}
	lc.flush()
}
