// Package transport puts the synchronous message-passing model on a real
// network: it defines the lock-step round contract a process-facing
// transport must provide (broadcast a payload, collect the round, learn of
// crashes) and supplies two implementations — an in-process loopback for
// tests, examples and benchmarks, and a length-prefixed TCP transport in
// which n OS processes on real sockets execute the protocol end to end
// through a coordinator (cmd/blserve). Both close every round with
// sim.Rounds, the reference engine's own round rule, so what this package
// adds is only the network around it: goroutine lock-step or sockets, and
// the one crash rule a network has of its own.
//
// # The round contract
//
// Computation proceeds in lock-step rounds numbered from 1, exactly as in
// the paper's model (§3): in every round each live process broadcasts one
// payload to all n participants — including itself — and then receives the
// payloads that were delivered to it. A process that fails to broadcast is
// crashed; a process that crashes during its broadcast may deliver that
// final payload to an arbitrary subset of recipients (over TCP that subset
// arises from a dropped connection or from scripted fault injection at the
// coordinator). Both implementations plan their per-round crashes with an
// adversary.Strategy stepped by sim.Rounds, so a schedule scripted here
// replays identically on internal/sim; the equivalence tests check the
// lock-step and the sockets that carry it.
//
// # Driving a process
//
// Run drives any Process (internal/core.Ball natively, or the public
// ballsintoleaves.Protocol through a ten-line adapter, as cmd/blserve does)
// over any Transport:
//
//	ep, _ := lb.Endpoint(id)        // or transport.Dial(addr, id, 0)
//	res, err := transport.Run(ep, ball, 0)
//
// The loopback hub and the TCP coordinator both collect the run's outcome
// into a Summary with the same shape as a sim.Result, which is what makes
// cross-engine assertions one-line comparisons.
package transport

import (
	"errors"
	"fmt"

	"ballsintoleaves/internal/proto"
)

// ErrCrashed is reported (wrapped) by Broadcast or Collect when the
// transport has determined that the local process is crashed: the
// coordinator killed it by fault injection, or its connection to the rest
// of the system is gone. By the model's rules the process must fall silent;
// Run translates this error into RunResult.Crashed.
var ErrCrashed = errors.New("transport: local process crashed")

// Round is everything one process receives in one lock-step round.
type Round struct {
	// Msgs are the payloads delivered to this process, in ascending sender
	// ID order, the process's own broadcast included. Payload slices are
	// only valid until the next Collect call; recipients that retain them
	// must copy.
	Msgs []proto.Message
	// Crashed lists the processes newly observed to have crashed in this
	// round, in crash order. The protocol itself infers crashes from
	// silence; this field exists for logging and operational visibility.
	Crashed []proto.ID
}

// Halt is a process's clean sign-off after its state machine reports Done:
// it will neither broadcast nor expect deliveries from the round after
// Round onwards. Decided carries the process's renaming decision to the
// transport's summary; an undecided halt (a driver giving up) leaves it
// false.
type Halt struct {
	// Round is the last round the process participated in.
	Round int
	// Decided reports whether the process decided a name.
	Decided bool
	// Name is the decided name in 1..n (when Decided).
	Name int
	// DecidedRound is the round in which the decision was made (when
	// Decided); it can be earlier than Round, since a process keeps
	// participating until every ball in its view holds a name.
	DecidedRound int
}

// Transport is one process's view of the synchronous lock-step network.
// Implementations must deliver every correct participant's broadcast to
// every participant each round; partial delivery is permitted only for a
// crashing sender's final round. Methods are called from a single
// goroutine in strict Broadcast(r) → Collect(r) → [Halt] order.
type Transport interface {
	// Broadcast submits this process's payload for the given round. The
	// payload is consumed synchronously (implementations copy or encode it
	// before returning), so callers may reuse the backing buffer — as the
	// protocol state machines do.
	Broadcast(round int, payload []byte) error

	// Collect blocks until the given round is complete and returns its
	// deliveries. A wrapped ErrCrashed means the local process itself is
	// considered crashed and must fall silent.
	Collect(round int) (Round, error)

	// Halt announces a clean halt after h.Round, reports the process's
	// decision to the transport's summary, and releases resources. After
	// Halt the transport must not be used.
	Halt(h Halt) error
}

// Process is the state-machine surface Run drives. internal/core.Ball
// satisfies it directly; the public ballsintoleaves.Protocol matches it up
// to the message type and adapts in a few lines (see cmd/blserve).
type Process interface {
	// Send returns the payload to broadcast in the given round. The slice
	// may be reused across rounds.
	Send(round int) []byte
	// Deliver hands the process every message received in the round.
	Deliver(round int, msgs []proto.Message)
	// Decided reports the decided name once one is held.
	Decided() (name int, ok bool)
	// Done reports whether the process has halted.
	Done() bool
}

// RunResult is the local outcome of driving one process with Run.
type RunResult struct {
	// Decided, Name and DecidedRound mirror the process's decision.
	Decided      bool
	Name         int
	DecidedRound int
	// Rounds is the number of rounds the process fully executed.
	Rounds int
	// Crashed reports that the transport declared this process crashed
	// (fault injection or a lost connection); the fields above then
	// reflect state as of the last completed round.
	Crashed bool
}

// Run drives one process over t until it halts or crashes, providing the
// lock-step loop documented on ballsintoleaves.NewProtocol. maxRounds
// bounds the run as a livelock safety net (<= 0 selects 4096); exceeding it
// halts the process undecided and returns an error.
func Run(t Transport, p Process, maxRounds int) (RunResult, error) {
	if maxRounds <= 0 {
		maxRounds = 4096
	}
	var res RunResult
	for round := 1; ; round++ {
		if round > maxRounds {
			_ = t.Halt(Halt{Round: round - 1})
			return res, fmt.Errorf("transport: exceeded %d rounds without halting", maxRounds)
		}
		if err := t.Broadcast(round, p.Send(round)); err != nil {
			return runCrash(res, err)
		}
		rd, err := t.Collect(round)
		if err != nil {
			return runCrash(res, err)
		}
		p.Deliver(round, rd.Msgs)
		res.Rounds = round
		if !res.Decided {
			if name, ok := p.Decided(); ok {
				res.Decided, res.Name, res.DecidedRound = true, name, round
			}
		}
		if p.Done() {
			err := t.Halt(Halt{
				Round:        round,
				Decided:      res.Decided,
				Name:         res.Name,
				DecidedRound: res.DecidedRound,
			})
			return res, err
		}
	}
}

// runCrash classifies a transport failure: ErrCrashed is the model's
// expected outcome for a killed process, anything else is a genuine error.
func runCrash(res RunResult, err error) (RunResult, error) {
	if errors.Is(err, ErrCrashed) {
		res.Crashed = true
		return res, nil
	}
	return res, err
}
