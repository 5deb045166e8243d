// Package trace records round-level protocol events — sends, deliveries,
// decisions, halts — by transparently wrapping proto.Process instances. It
// works on the reference engine and over the transports, one goroutine per
// process (the log is thread-safe), and is the debugging companion to cmd/blsim's phase-level
// tree rendering: blsim shows where the balls are, trace shows every
// message that put them there.
package trace

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/sim"
)

// Kind classifies an event.
type Kind uint8

const (
	// KindSend records one broadcast payload leaving a process.
	KindSend Kind = iota + 1
	// KindDeliver records one round's delivery batch reaching a process.
	KindDeliver
	// KindDecide records a process deciding its name.
	KindDecide
	// KindHalt records a process halting.
	KindHalt
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindDeliver:
		return "deliver"
	case KindDecide:
		return "decide"
	case KindHalt:
		return "halt"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one recorded protocol event.
type Event struct {
	Round int
	Kind  Kind
	Proc  proto.ID
	// Bytes is the payload size for sends, or the total delivered bytes
	// for deliveries.
	Bytes int
	// Msgs is the number of messages in a delivery batch.
	Msgs int
	// Name is the decided name for decide events.
	Name int
}

// Log collects events from any number of wrapped processes. The zero value
// is ready to use.
type Log struct {
	mu     sync.Mutex
	events []Event
}

// add appends one event.
func (l *Log) add(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, e)
}

// Events returns a copy of the recorded events in arrival order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Decisions extracts the decide events, sorted by process ID.
func (l *Log) Decisions() []Event {
	var out []Event
	for _, e := range l.Events() {
		if e.Kind == KindDecide {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Proc < out[j].Proc })
	return out
}

// RoundSummary aggregates one round's traffic.
type RoundSummary struct {
	Round    int
	Sends    int
	Messages int // delivered messages
	Bytes    int // delivered bytes
	Decides  int
	Halts    int
}

// Summarize aggregates the log per round, in round order.
func (l *Log) Summarize() []RoundSummary {
	byRound := make(map[int]*RoundSummary)
	for _, e := range l.Events() {
		s := byRound[e.Round]
		if s == nil {
			s = &RoundSummary{Round: e.Round}
			byRound[e.Round] = s
		}
		switch e.Kind {
		case KindSend:
			s.Sends++
		case KindDeliver:
			s.Messages += e.Msgs
			s.Bytes += e.Bytes
		case KindDecide:
			s.Decides++
		case KindHalt:
			s.Halts++
		}
	}
	out := make([]RoundSummary, 0, len(byRound))
	for _, s := range byRound {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Round < out[j].Round })
	return out
}

// Render writes a per-round transcript summary.
func (l *Log) Render(w io.Writer) {
	fmt.Fprintln(w, "round  sends  msgs  bytes  decides  halts")
	for _, s := range l.Summarize() {
		fmt.Fprintf(w, "%5d  %5d  %4d  %5d  %7d  %5d\n",
			s.Round, s.Sends, s.Messages, s.Bytes, s.Decides, s.Halts)
	}
}

// Wrap returns a process that records its events into log. If the wrapped
// process exposes adversary introspection (sim.Introspector), the wrapper
// preserves it so strong adversaries keep working.
func Wrap(p proto.Process, log *Log) proto.Process {
	w := &wrapped{inner: p, log: log}
	if intro, ok := p.(sim.Introspector); ok {
		return &wrappedIntrospector{wrapped: w, intro: intro}
	}
	return w
}

// WrapAll wraps a whole system into the same log.
func WrapAll(procs []proto.Process, log *Log) []proto.Process {
	out := make([]proto.Process, len(procs))
	for i, p := range procs {
		out[i] = Wrap(p, log)
	}
	return out
}

// wrapped decorates a process with event recording.
type wrapped struct {
	inner   proto.Process
	log     *Log
	decided bool
	halted  bool
}

var _ proto.Process = (*wrapped)(nil)

func (w *wrapped) ID() proto.ID { return w.inner.ID() }

func (w *wrapped) Send(round int) []byte {
	payload := w.inner.Send(round)
	w.log.add(Event{Round: round, Kind: KindSend, Proc: w.inner.ID(), Bytes: len(payload)})
	return payload
}

func (w *wrapped) Deliver(round int, msgs []proto.Message) {
	total := 0
	for _, m := range msgs {
		total += len(m.Payload)
	}
	w.log.add(Event{Round: round, Kind: KindDeliver, Proc: w.inner.ID(), Msgs: len(msgs), Bytes: total})
	w.inner.Deliver(round, msgs)
	if !w.decided {
		if name, ok := w.inner.Decided(); ok {
			w.decided = true
			w.log.add(Event{Round: round, Kind: KindDecide, Proc: w.inner.ID(), Name: name})
		}
	}
	if !w.halted && w.inner.Done() {
		w.halted = true
		w.log.add(Event{Round: round, Kind: KindHalt, Proc: w.inner.ID()})
	}
}

func (w *wrapped) Decided() (int, bool) { return w.inner.Decided() }
func (w *wrapped) Done() bool           { return w.inner.Done() }

// wrappedIntrospector additionally forwards adversary introspection.
type wrappedIntrospector struct {
	*wrapped
	intro sim.Introspector
}

var _ sim.Introspector = (*wrappedIntrospector)(nil)

func (w *wrappedIntrospector) Info() adversary.BallInfo { return w.intro.Info() }
