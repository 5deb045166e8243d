// Package sim is the reference engine for the synchronous message-passing
// model: a deterministic, single-threaded driver that executes lock-step
// rounds over a set of proto.Process state machines, applying an
// adversary's crash-and-partial-delivery plan between the send and receive
// halves of each round.
//
// Determinism contract: with identical processes, adversary and
// configuration, every run produces identical message sequences, decisions
// and round counts. The fast cohort simulator in internal/core and the
// goroutine-per-process loopback and TCP transports in internal/transport
// are validated against this engine.
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

// Engine drives one run. Construct with New, execute with Run.
type Engine struct {
	cfg       Config
	procs     []proto.Process // ascending ID order
	byID      map[proto.ID]int
	alive     []bool
	halted    []bool
	decided   []bool
	decisions []proto.Decision
	crashed   []proto.ID
	round     int
	budget    int
	payloads  [][]byte
	messages  int64
	bytes     int64
}

// New builds an engine over the given processes. Processes must have
// distinct IDs; they are sorted by ID internally.
func New(cfg Config, procs []proto.Process) (*Engine, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("sim: no processes")
	}
	sorted := make([]proto.Process, len(procs))
	copy(sorted, procs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID() < sorted[j].ID() })
	byID := make(map[proto.ID]int, len(sorted))
	for i, p := range sorted {
		if _, dup := byID[p.ID()]; dup {
			return nil, fmt.Errorf("sim: duplicate process ID %v", p.ID())
		}
		byID[p.ID()] = i
	}
	if cfg.Adversary == nil {
		cfg.Adversary = adversary.None{}
	}
	if cfg.Budget <= 0 {
		cfg.Budget = len(sorted) - 1
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = 10*len(sorted) + 64
	}
	return &Engine{
		cfg:      cfg,
		procs:    sorted,
		byID:     byID,
		alive:    allTrue(len(sorted)),
		halted:   make([]bool, len(sorted)),
		decided:  make([]bool, len(sorted)),
		payloads: make([][]byte, len(sorted)),
		budget:   cfg.Budget,
	}, nil
}

func allTrue(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

// Run executes rounds until every surviving process halts, then returns the
// result. It errors if MaxRounds is exceeded.
func (e *Engine) Run() (Result, error) {
	for e.pendingWork() {
		if e.round >= e.cfg.MaxRounds {
			return e.result(), fmt.Errorf("sim: exceeded %d rounds without quiescing", e.cfg.MaxRounds)
		}
		e.step()
	}
	return e.result(), nil
}

// pendingWork reports whether any process is still alive and unhalted.
func (e *Engine) pendingWork() bool {
	for i := range e.procs {
		if e.alive[i] && !e.halted[i] {
			return true
		}
	}
	return false
}

// step executes one full round: send, adversary plan, deliver.
func (e *Engine) step() {
	e.round++
	// Send half: collect payloads from all live, unhalted processes.
	for i, p := range e.procs {
		if e.alive[i] && !e.halted[i] {
			e.payloads[i] = p.Send(e.round)
		} else {
			e.payloads[i] = nil
		}
	}
	// Adversary half: plan crashes with full visibility.
	view := &roundView{engine: e}
	specs := e.cfg.Adversary.Plan(view)
	crashedNow := make(map[int]func(proto.ID) bool)
	for _, spec := range specs {
		idx, ok := e.byID[spec.Victim]
		if !ok || !e.alive[idx] || e.halted[idx] || e.budget == 0 {
			continue
		}
		if _, dup := crashedNow[idx]; dup {
			continue
		}
		e.budget--
		e.alive[idx] = false
		e.crashed = append(e.crashed, spec.Victim)
		deliver := spec.Deliver
		if deliver == nil {
			deliver = adversary.DeliverNone
		}
		crashedNow[idx] = deliver
	}
	// Deliver half: every surviving, unhalted process receives the round's
	// messages in ascending sender order, always including its own.
	var msgs []proto.Message
	for i, p := range e.procs {
		if !e.alive[i] || e.halted[i] {
			continue
		}
		msgs = msgs[:0]
		for j, payload := range e.payloads {
			if payload == nil {
				continue
			}
			if deliver, crashed := crashedNow[j]; crashed {
				if !deliver(p.ID()) {
					continue
				}
			}
			msgs = append(msgs, proto.Message{From: e.procs[j].ID(), Payload: payload})
			if i != j {
				e.messages++
				e.bytes += int64(len(payload))
			}
		}
		p.Deliver(e.round, msgs)
		if !e.decided[i] {
			if name, ok := p.Decided(); ok {
				e.decided[i] = true
				e.decisions = append(e.decisions, proto.Decision{ID: p.ID(), Name: name, Round: e.round})
			}
		}
		if p.Done() {
			e.halted[i] = true
		}
	}
}

// result assembles the Result, filtering decisions down to correct
// processes.
func (e *Engine) result() Result {
	res := Result{
		Rounds:   e.round,
		Crashed:  e.crashed,
		Messages: e.messages,
		Bytes:    e.bytes,
	}
	for _, d := range e.decisions {
		if e.alive[e.byID[d.ID]] {
			res.Decisions = append(res.Decisions, d)
		} else {
			res.CrashedDecided++
		}
	}
	sort.Slice(res.Decisions, func(i, j int) bool { return res.Decisions[i].ID < res.Decisions[j].ID })
	return res
}

// roundView implements adversary.RoundView over the engine's current round.
type roundView struct {
	engine *Engine
	alive  []proto.ID // lazily built
}

func (v *roundView) Round() int { return v.engine.round }
func (v *roundView) N() int     { return len(v.engine.procs) }

func (v *roundView) Alive() []proto.ID {
	if v.alive == nil {
		for i, p := range v.engine.procs {
			if v.engine.alive[i] && !v.engine.halted[i] {
				v.alive = append(v.alive, p.ID())
			}
		}
	}
	return v.alive
}

func (v *roundView) Payload(id proto.ID) []byte {
	idx, ok := v.engine.byID[id]
	if !ok {
		return nil
	}
	return v.engine.payloads[idx]
}

func (v *roundView) Info(id proto.ID) (adversary.BallInfo, bool) {
	idx, ok := v.engine.byID[id]
	if !ok || !v.engine.alive[idx] {
		return adversary.BallInfo{}, false
	}
	if intro, ok := v.engine.procs[idx].(Introspector); ok {
		return intro.Info(), true
	}
	return adversary.BallInfo{}, false
}

func (v *roundView) Budget() int { return v.engine.budget }
