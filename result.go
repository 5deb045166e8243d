package ballsintoleaves

import (
	"ballsintoleaves/internal/core"
	"ballsintoleaves/internal/sim"
)

// Result is the outcome of one simulated execution.
type Result struct {
	// N is the number of processes (and names).
	N int
	// Algorithm and Seed echo the run's configuration.
	Algorithm Algorithm
	Seed      uint64
	// Rounds is the number of synchronous rounds until every surviving
	// process halted; Phases is the number of two-round protocol phases
	// (tree algorithms only; equals Rounds for NaiveRandom).
	Rounds int
	Phases int
	// Names maps each correct process's original id to its decided name in
	// 1..N. Names are unique (tight renaming).
	Names map[uint64]int
	// DecisionRound maps each correct process's id to the round in which
	// it decided.
	DecisionRound map[uint64]int
	// Crashed lists the processes the adversary crashed, in crash order
	// where the engine tracks it.
	Crashed []uint64
	// Messages and Bytes count network deliveries, excluding a process
	// hearing its own broadcast.
	Messages int64
	Bytes    int64
	// PhaseStats holds per-phase tree statistics when WithPhaseMetrics was
	// set (FastEngine only).
	PhaseStats []PhaseStat
}

// PhaseStat is the public mirror of one per-phase snapshot of the canonical
// tree: how contended the tree still is and how far the balls have spread.
type PhaseStat struct {
	Phase           int
	Round           int
	Balls           int
	AtLeaves        int
	MaxBallsAtNode  int
	BusiestPathLoad int
	DepthHistogram  []int
}

// newResult allocates a Result shell for the given options.
func newResult(o *options, rounds, phases int) *Result {
	return &Result{
		N:             o.n,
		Algorithm:     o.algorithm,
		Seed:          o.seed,
		Rounds:        rounds,
		Phases:        phases,
		Names:         make(map[uint64]int, o.n),
		DecisionRound: make(map[uint64]int, o.n),
	}
}

// resultFromCohort converts a fast-simulator result.
func resultFromCohort(res core.Result, o *options) *Result {
	out := newResult(o, res.Rounds, res.Phases)
	for _, d := range res.Decisions {
		out.Names[uint64(d.ID)] = d.Name
		out.DecisionRound[uint64(d.ID)] = d.Round
	}
	out.Messages = res.Messages
	out.Bytes = res.Bytes
	if res.Crashes > 0 {
		out.Crashed = make([]uint64, 0, res.Crashes)
		decided := make(map[uint64]bool, len(res.Decisions))
		for _, d := range res.Decisions {
			decided[uint64(d.ID)] = true
		}
		for _, id := range o.ids {
			if !decided[uint64(id)] {
				out.Crashed = append(out.Crashed, uint64(id))
			}
		}
	}
	if res.Metrics != nil {
		for _, s := range res.Metrics.PerPhase {
			out.PhaseStats = append(out.PhaseStats, PhaseStat{
				Phase:           s.Phase,
				Round:           s.Round,
				Balls:           s.Balls,
				AtLeaves:        s.AtLeaves,
				MaxBallsAtNode:  s.MaxAtNode,
				BusiestPathLoad: s.BusiestPathLoad,
				DepthHistogram:  s.DepthHist,
			})
		}
	}
	return out
}

// resultFromEngine converts a reference engine result.
func resultFromEngine(res sim.Result, o *options) *Result {
	phases := 0
	if o.algorithm != NaiveRandom && res.Rounds > 0 {
		phases = (res.Rounds - 1) / 2
	} else {
		phases = res.Rounds
	}
	out := newResult(o, res.Rounds, phases)
	for _, d := range res.Decisions {
		out.Names[uint64(d.ID)] = d.Name
		out.DecisionRound[uint64(d.ID)] = d.Round
	}
	for _, id := range res.Crashed {
		out.Crashed = append(out.Crashed, uint64(id))
	}
	out.Messages = res.Messages
	out.Bytes = res.Bytes
	return out
}
