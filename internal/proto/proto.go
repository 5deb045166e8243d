// Package proto defines the synchronous message-passing model shared by all
// protocols and engines in this repository: process identifiers, messages,
// the lock-step round contract, and decision reporting.
//
// The model follows the paper (Alistarh, Denysyuk, Rodrigues, Shavit,
// "Balls-into-Leaves", PODC 2014, §3): computation proceeds in lock-step
// rounds over a fully connected network of n processes. In each round every
// process may broadcast one message, receive the messages delivered to it,
// flip coins, and change state. Up to t < n processes crash; a process that
// crashes during its broadcast delivers that final message to an arbitrary,
// adversary-chosen subset of recipients and is silent afterwards.
package proto

import "fmt"

// ID is a process's original identifier, drawn from an unbounded namespace.
// The algorithms in this repository are comparison-based: only the relative
// order of IDs matters, never their numeric value.
type ID uint64

// String renders the ID in a compact hexadecimal form for traces.
func (id ID) String() string { return fmt.Sprintf("p%x", uint64(id)) }

// Message is a payload delivered to a process during a round's exchange.
// From identifies the sender; engines guarantee at most one message per
// sender per round.
type Message struct {
	From    ID
	Payload []byte
}

// Process is the state-machine contract driven by the reference engine
// (internal/sim) and, through internal/transport's Run
// loop, by the real network transports. The driver calls Send at the start
// of each round to collect the process's broadcast payload, applies the
// adversary's crash and delivery plan (or, on a real network, observes
// actual connection failures), and then calls Deliver with the messages
// that reached the process.
//
// Implementations must be deterministic given their construction-time seed:
// the engines and the transport layer rely on replayability for
// cross-validation.
type Process interface {
	// ID returns the process's original identifier.
	ID() ID

	// Send returns the payload to broadcast in the given round, or nil if
	// the process has nothing to send. Rounds are numbered from 1.
	Send(round int) []byte

	// Deliver hands the process every message that reached it in the given
	// round, in ascending order of sender ID. The slice is owned by the
	// engine; implementations must not retain it across calls.
	Deliver(round int, msgs []Message)

	// Decided reports the process's decided name (1-based rank in the
	// target namespace) once a decision has been made.
	Decided() (name int, ok bool)

	// Done reports whether the process has halted: it will neither send nor
	// expect further deliveries. Engines stop scheduling done processes.
	Done() bool
}

// Decision records one process's output for result collection.
type Decision struct {
	ID    ID
	Name  int // 1-based new name in 1..n
	Round int // round in which the decision was made
}

// Validate checks the three renaming conditions (validity and uniqueness;
// termination is implied by all correct processes appearing in decisions)
// over the decisions of correct processes, against a target namespace 1..m.
// It returns a descriptive error for the first violated condition.
func Validate(decisions []Decision, m int) error {
	taken := make(map[int]ID, len(decisions))
	for _, d := range decisions {
		if d.Name < 1 || d.Name > m {
			return fmt.Errorf("validity violated: %v decided %d outside 1..%d", d.ID, d.Name, m)
		}
		if prev, dup := taken[d.Name]; dup {
			return fmt.Errorf("uniqueness violated: %v and %v both decided %d", prev, d.ID, d.Name)
		}
		taken[d.Name] = d.ID
	}
	return nil
}
