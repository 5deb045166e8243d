package transport

import (
	"fmt"
	"sync"

	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/sim"
)

// Loopback is the in-process Transport implementation: a hub that
// synchronizes lock-step rounds between goroutines and closes each one
// with sim.Rounds, the simulation engines' own round rule. It
// is the substrate for tests, examples and benchmarks that want a real
// Transport without sockets, and the reference against which the TCP
// implementation is easiest to reason about.
//
// Usage: construct the hub with the full member set, hand each process
// goroutine its Endpoint, and drive each endpoint with Run (or the manual
// Broadcast/Collect/Halt loop). Once every member has halted or crashed,
// Summary reports the system-wide outcome.
type Loopback struct {
	mu   sync.Mutex
	cond *sync.Cond
	nw   *network

	round   int // round currently being collected
	sent    []bool
	pending [][]byte
	taken   []bool

	// Per-member results of the last closed round.
	inbox      []Round
	inboxRound []int
}

// NewLoopback builds a hub for the given members (distinct, non-zero IDs;
// order irrelevant) under the given network configuration.
func NewLoopback(members []proto.ID, cfg NetConfig) (*Loopback, error) {
	nw, err := newNetwork(members, cfg)
	if err != nil {
		return nil, err
	}
	n := len(members)
	l := &Loopback{
		nw:         nw,
		round:      1,
		sent:       make([]bool, n),
		pending:    make([][]byte, n),
		taken:      make([]bool, n),
		inbox:      make([]Round, n),
		inboxRound: make([]int, n),
	}
	l.cond = sync.NewCond(&l.mu)
	return l, nil
}

// Endpoint returns the Transport for the given member. Each member's
// endpoint can be taken once.
func (l *Loopback) Endpoint(id proto.ID) (Transport, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx, ok := l.nw.Index(id)
	if !ok {
		return nil, fmt.Errorf("transport: %v is not a member of this loopback", id)
	}
	if l.taken[idx] {
		return nil, fmt.Errorf("transport: endpoint for %v already taken", id)
	}
	l.taken[idx] = true
	return &loopEnd{hub: l, idx: idx}, nil
}

// Summary reports the outcome collected so far; call it after every
// member's driver has returned.
func (l *Loopback) Summary() Summary {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nw.summary()
}

// broadcast registers one member's payload for the round and closes the
// round once every live member has spoken.
func (l *Loopback) broadcast(idx, round int, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nw.Status(idx) == sim.Crashed {
		return fmt.Errorf("broadcast round %d: %w", round, ErrCrashed)
	}
	if l.nw.Status(idx) == sim.Halted {
		return fmt.Errorf("transport: broadcast after halt")
	}
	if round != l.round {
		return fmt.Errorf("transport: broadcast for round %d while round %d is open", round, l.round)
	}
	if l.sent[idx] {
		return fmt.Errorf("transport: duplicate broadcast in round %d", round)
	}
	// Senders reuse their encoding buffers across rounds; copy now, like
	// the engines do. A nil payload is normalized to empty: the member did
	// broadcast (silence, by contrast, means a crash).
	cp := make([]byte, len(payload))
	copy(cp, payload)
	l.pending[idx] = cp
	l.sent[idx] = true
	l.maybeCloseRound()
	return nil
}

// collect blocks until the round has closed for this member.
func (l *Loopback) collect(idx, round int) (Round, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.inboxRound[idx] < round && l.nw.Status(idx) != sim.Crashed {
		l.cond.Wait()
	}
	if l.inboxRound[idx] < round {
		return Round{}, fmt.Errorf("collect round %d: %w", round, ErrCrashed)
	}
	if l.inboxRound[idx] > round {
		return Round{}, fmt.Errorf("transport: collect for round %d after round %d closed", round, l.inboxRound[idx])
	}
	return l.inbox[idx], nil
}

// halt records a member's sign-off; the current round may become closable
// because the hub no longer waits for this member's broadcast.
func (l *Loopback) halt(idx int, h Halt) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nw.halt(idx, h)
	l.maybeCloseRound()
	return nil
}

// maybeCloseRound closes the collecting round once every live member has
// broadcast, copying each survivor's messages into its inbox and waking
// every member parked in collect, victims included, so they learn of their
// death. Callers hold l.mu.
func (l *Loopback) maybeCloseRound() {
	live := 0
	for i := range l.sent {
		if l.nw.Status(i) != sim.Live {
			continue
		}
		if !l.sent[i] {
			return
		}
		live++
	}
	if live == 0 {
		return
	}
	crashedNow := l.nw.Step(l.round, l.pending, func(i int, msgs []proto.Message) {
		l.inbox[i] = Round{Msgs: append([]proto.Message(nil), msgs...)}
		l.inboxRound[i] = l.round
	})
	for i := range l.sent {
		if l.inboxRound[i] == l.round {
			l.inbox[i].Crashed = crashedNow
		}
		l.sent[i] = false
		l.pending[i] = nil
	}
	l.round++
	l.cond.Broadcast()
}

// loopEnd is one member's endpoint on the hub.
type loopEnd struct {
	hub *Loopback
	idx int
}

// Broadcast implements Transport.
func (e *loopEnd) Broadcast(round int, payload []byte) error {
	return e.hub.broadcast(e.idx, round, payload)
}

// Collect implements Transport.
func (e *loopEnd) Collect(round int) (Round, error) {
	return e.hub.collect(e.idx, round)
}

// Halt implements Transport.
func (e *loopEnd) Halt(h Halt) error {
	return e.hub.halt(e.idx, h)
}
