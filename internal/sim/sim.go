// Package sim holds the synchronous message-passing model's round rule and
// its reference engine. Rounds is the rule (§3): every live member
// broadcasts, the adversary crashes some, and a crashing sender's last
// broadcast reaches only the recipients the adversary picks. Engine is a
// deterministic, single-threaded driver that steps Rounds over a set of
// in-process proto.Process state machines; the loopback hub and the TCP
// coordinator in internal/transport step the same Rounds with payloads
// that arrive over a network.
//
// Determinism contract: with identical processes, adversary and
// configuration, every run produces identical message sequences, decisions
// and round counts. The fast cohort simulator in internal/core keeps its
// own allocation-free copy of the rule and is validated against Engine;
// the transports share the rule, and their equivalence tests check the
// goroutine lock-step and the sockets around it.
package sim

import (
	"fmt"
	"sort"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/proto"
)

// Introspector is optionally implemented by processes to expose algorithmic
// state to strong adaptive adversaries (see adversary.RoundView.Info).
type Introspector interface {
	Info() adversary.BallInfo
}

// Config parameterizes a run. The zero value gets sensible defaults from
// New: failure-free adversary, budget n-1, and a generous round cap.
type Config struct {
	// Adversary plans crashes; nil means failure-free.
	Adversary adversary.Strategy
	// Budget caps the total number of crashes (the model's t). Zero means
	// n-1, the maximum the renaming problem tolerates.
	Budget int
	// MaxRounds aborts runs that exceed it, as a safety net against
	// livelocked protocols. Zero means 10*n + 64.
	MaxRounds int
}

// Result summarizes a completed run.
type Result struct {
	// Rounds is the number of rounds executed until every surviving
	// process halted.
	Rounds int
	// Decisions holds the decisions of correct (never crashed) processes,
	// in ascending ID order.
	Decisions []proto.Decision
	// CrashedDecided counts processes that decided and crashed afterwards.
	CrashedDecided int
	// Crashed lists crashed processes in crash order.
	Crashed []proto.ID
	// Messages and Bytes count network deliveries (excluding a process
	// hearing its own broadcast).
	Messages int64
	Bytes    int64
}

// Engine drives one run of in-process processes over Rounds. Construct
// with New, execute with Run.
type Engine struct {
	cfg       Config
	procs     []proto.Process // ascending ID order, as rounds.Members
	rounds    *Rounds
	decided   []bool
	decisions []proto.Decision
	round     int
	payloads  [][]byte
}

// New builds an engine over the given processes. Processes must have
// distinct, non-zero IDs; they are sorted by ID internally.
func New(cfg Config, procs []proto.Process) (*Engine, error) {
	sorted := make([]proto.Process, len(procs))
	copy(sorted, procs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID() < sorted[j].ID() })
	ids := make([]proto.ID, len(sorted))
	intro := make([]Introspector, len(sorted))
	for i, p := range sorted {
		ids[i] = p.ID()
		intro[i], _ = p.(Introspector)
	}
	rounds, err := NewRounds(ids, intro, cfg.Adversary, cfg.Budget)
	if err != nil {
		return nil, err
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 10*len(sorted) + 64
	}
	return &Engine{
		cfg:      cfg,
		procs:    sorted,
		rounds:   rounds,
		decided:  make([]bool, len(sorted)),
		payloads: make([][]byte, len(sorted)),
	}, nil
}

// Run executes rounds until every surviving process halts, then returns the
// result. It errors if MaxRounds is exceeded.
func (e *Engine) Run() (Result, error) {
	for e.rounds.Active() {
		if e.round >= e.cfg.MaxRounds {
			return e.result(), fmt.Errorf("sim: exceeded %d rounds without quiescing", e.cfg.MaxRounds)
		}
		e.step()
	}
	return e.result(), nil
}

// step executes one full round: every live process sends, then Rounds
// plans the crashes and delivers.
func (e *Engine) step() {
	e.round++
	for i, p := range e.procs {
		e.payloads[i] = nil
		if e.rounds.Status(i) == Live {
			e.payloads[i] = p.Send(e.round)
		}
	}
	e.rounds.Step(e.round, e.payloads, e.deliver)
}

// deliver hands process i its messages and records its decision and halt.
func (e *Engine) deliver(i int, msgs []proto.Message) {
	p := e.procs[i]
	p.Deliver(e.round, msgs)
	if !e.decided[i] {
		if name, ok := p.Decided(); ok {
			e.decided[i] = true
			e.decisions = append(e.decisions, proto.Decision{ID: p.ID(), Name: name, Round: e.round})
		}
	}
	if p.Done() {
		e.rounds.Halt(i)
	}
}

// result assembles the Result, filtering decisions down to correct
// processes.
func (e *Engine) result() Result {
	res := Result{Rounds: e.round, Crashed: e.rounds.Crashed()}
	res.Messages, res.Bytes = e.rounds.Traffic()
	for _, d := range e.decisions {
		if i, _ := e.rounds.Index(d.ID); e.rounds.Status(i) != Crashed {
			res.Decisions = append(res.Decisions, d)
		} else {
			res.CrashedDecided++
		}
	}
	sort.Slice(res.Decisions, func(i, j int) bool { return res.Decisions[i].ID < res.Decisions[j].ID })
	return res
}
