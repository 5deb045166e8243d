// Package faultnet is a deterministic network-fault layer: a per-link
// fault state (partitions, one-way drops, added latency, bandwidth caps,
// connection resets) applied by a TCP chaos proxy interposed on a real
// link (proxy.go), and a Mesh that maps node-level faults onto the links
// of an n-node cluster (mesh.go). Faults are driven by declarative,
// seed-deterministic schedules (schedule.go) in the scripted-strategy
// style of internal/adversary: a schedule compiled from (scenario, seed)
// is a pure value, so the same seed always yields the same fault event
// sequence.
//
// A partition is modeled as *stall*, not loss: TCP retransmits until the
// route heals, so a dropped direction holds bytes (backpressure) rather
// than discarding them, and new connection attempts toward a dropped
// direction hang like a lost SYN until the link heals or the attempt is
// torn down. Connection resets model route flaps that kill established
// flows outright.
package faultnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Dir selects one direction of a link. A link joins two endpoints A and B;
// AtoB carries bytes originated by A, BtoA bytes originated by B. For a
// dialed connection, A is the dialer.
type Dir int

const (
	AtoB Dir = iota
	BtoA
)

func (d Dir) String() string {
	if d == AtoB {
		return "a->b"
	}
	return "b->a"
}

// ErrLinkClosed is returned by gated I/O when the connection was reset
// while the operation waited out a fault.
var ErrLinkClosed = errors.New("faultnet: link closed")

// dirState is the fault state of one direction of a link.
type dirState struct {
	drop    bool
	latency time.Duration
	rate    int // bytes/sec; 0 = unlimited
}

// Link is the mutable fault state of one network link. All live
// proxied connections riding the link consult it on every transfer; Set*
// calls take effect immediately for blocked transfers via condition
// broadcast.
type Link struct {
	name string

	mu    sync.Mutex
	cond  *sync.Cond
	dirs  [2]dirState
	conns map[*gatedConn]struct{}
}

// NewLink returns a healthy link. The name is used only for diagnostics.
func NewLink(name string) *Link {
	l := &Link{name: name, conns: make(map[*gatedConn]struct{})}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// SetDrop sets or clears the partition state of one direction.
func (l *Link) SetDrop(d Dir, drop bool) {
	l.mu.Lock()
	l.dirs[d].drop = drop
	l.mu.Unlock()
	l.cond.Broadcast()
}

// SetLatency adds a fixed delay to every transfer in one direction.
func (l *Link) SetLatency(d Dir, lat time.Duration) {
	l.mu.Lock()
	l.dirs[d].latency = lat
	l.mu.Unlock()
	l.cond.Broadcast()
}

// SetRate caps one direction's throughput in bytes per second; 0 lifts
// the cap.
func (l *Link) SetRate(d Dir, bytesPerSec int) {
	l.mu.Lock()
	l.dirs[d].rate = bytesPerSec
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Partition drops both directions. With oneWay set only AtoB is dropped:
// bytes from the A side vanish while the B side's keep flowing — the
// asymmetric-partition case that timeouts, not connection errors, must
// catch.
func (l *Link) Partition(oneWay bool) {
	l.mu.Lock()
	l.dirs[AtoB].drop = true
	if !oneWay {
		l.dirs[BtoA].drop = true
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Heal clears drops, latency, and rate caps in both directions.
func (l *Link) Heal() {
	l.mu.Lock()
	l.dirs[AtoB] = dirState{}
	l.dirs[BtoA] = dirState{}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// ResetConns closes every live connection riding the link, modeling a
// route flap that RSTs established flows. The link's fault state is
// unchanged; new connections are still admitted per the drop state.
func (l *Link) ResetConns() {
	l.mu.Lock()
	victims := make([]*gatedConn, 0, len(l.conns))
	for c := range l.conns {
		victims = append(victims, c)
	}
	l.mu.Unlock()
	for _, c := range victims {
		c.kill()
	}
	l.cond.Broadcast()
}

// Dropped reports whether the given direction is currently partitioned.
func (l *Link) Dropped(d Dir) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dirs[d].drop
}

// register attaches a connection to the link for ResetConns fanout.
func (l *Link) register(c *gatedConn) {
	l.mu.Lock()
	l.conns[c] = struct{}{}
	l.mu.Unlock()
}

func (l *Link) unregister(c *gatedConn) {
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
}

// gate blocks while dir is dropped, then applies latency and rate faults
// for an n-byte transfer. It returns ErrLinkClosed if the connection dies
// while waiting — the caller must abandon the transfer.
func (l *Link) gate(dir Dir, n int, c *gatedConn) error {
	l.mu.Lock()
	for l.dirs[dir].drop && !c.dead.Load() {
		l.cond.Wait()
	}
	if c.dead.Load() {
		l.mu.Unlock()
		return ErrLinkClosed
	}
	lat := l.dirs[dir].latency
	rate := l.dirs[dir].rate
	l.mu.Unlock()
	delay := lat
	if rate > 0 {
		delay += time.Duration(float64(n) / float64(rate) * float64(time.Second))
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return nil
}

// gatedConn is the registration handle of one proxied connection — the
// accepted side alone while the target dial waits, then the pair: kill()
// closes the underlying transport(s) exactly once.
type gatedConn struct {
	link  *Link
	dead  atomic.Bool
	close func()
	once  sync.Once
}

func (g *gatedConn) kill() {
	g.dead.Store(true)
	g.once.Do(g.close)
	// Wake any gate() blocked on this connection inside a partition.
	g.link.cond.Broadcast()
}

// String renders the link's current fault state for logs.
func (l *Link) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return fmt.Sprintf("link %s [a->b drop=%v lat=%v rate=%d] [b->a drop=%v lat=%v rate=%d]",
		l.name,
		l.dirs[AtoB].drop, l.dirs[AtoB].latency, l.dirs[AtoB].rate,
		l.dirs[BtoA].drop, l.dirs[BtoA].latency, l.dirs[BtoA].rate)
}
