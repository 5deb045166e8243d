// Package ballsintoleaves is a complete implementation of the
// Balls-into-Leaves algorithm — randomized tight renaming in synchronous
// message-passing systems in O(log log n) communication rounds with high
// probability (Alistarh, Denysyuk, Rodrigues, Shavit, PODC 2014) — together
// with its early-terminating extension, the deterministic and randomized
// baselines it is measured against, crash-failure adversaries, and the
// simulation engines used to reproduce every quantitative claim of the
// paper (see DESIGN.md and EXPERIMENTS.md).
//
// # The problem
//
// n processes with distinct identifiers from an unbounded namespace must
// each decide a unique name in 1..n (tight renaming), communicating by
// synchronous broadcast while up to n-1 of them may crash — possibly
// mid-broadcast, with the adversary choosing which recipients still receive
// the final message.
//
// # Quick start
//
//	res, err := ballsintoleaves.Rename(64)
//	if err != nil { ... }
//	for id, name := range res.Names {
//	    fmt.Printf("process %x -> name %d\n", id, name)
//	}
//	fmt.Printf("finished in %d rounds\n", res.Rounds)
//
// Runs are deterministic: the same options always produce the same names,
// rounds, and message counts. Use WithSeed to vary executions and
// WithCrashes to inject adversarial failures:
//
//	res, _ := ballsintoleaves.Rename(1024,
//	    ballsintoleaves.WithSeed(7),
//	    ballsintoleaves.WithAlgorithm(ballsintoleaves.EarlyTerminating),
//	    ballsintoleaves.WithCrashes(ballsintoleaves.RandomCrashes(100, 9, 3)))
//
// # Running on a real network
//
// NewProtocol exposes the per-process state machine directly, so the
// algorithm can run over any transport that provides lock-step rounds:
// call Send to obtain the round's broadcast, deliver every received
// message via Deliver, and read Decided/Done. The full round-driving
// contract (payload reuse, self-delivery, crash semantics) is documented
// on Protocol.
//
// The repository ships that transport: internal/transport provides an
// in-process loopback and a length-prefixed TCP implementation with the
// simulation engines' exact crash semantics, and cmd/blserve runs n OS
// processes against a coordinator on real sockets, including scripted
// mid-broadcast crash injection. See ARCHITECTURE.md for how the engines
// and the transport relate and which tests pin them to each other.
package ballsintoleaves

import (
	"sort"

	"ballsintoleaves/internal/baseline"
	"ballsintoleaves/internal/core"
	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/sim"
)

// Rename simulates one complete execution of the selected renaming
// algorithm over n processes and returns the outcome. By default it runs
// Balls-into-Leaves failure-free on the fast simulator with seed 0 and
// random process identifiers.
func Rename(n int, opts ...Option) (*Result, error) {
	o, err := buildOptions(n, opts)
	if err != nil {
		return nil, err
	}
	switch o.algorithm {
	case NaiveRandom:
		return renameNaive(o)
	default:
		return renameTree(o)
	}
}

// renameTree runs the tree-based algorithms (Balls-into-Leaves and its
// variants) on the requested engine.
func renameTree(o *options) (*Result, error) {
	cfg := core.Config{
		N:               o.n,
		Seed:            o.seed,
		Strategy:        o.algorithm.strategy(),
		Arity:           o.arity,
		Budget:          o.budget,
		MaxRounds:       o.maxRounds,
		Metrics:         o.metrics,
		CheckInvariants: o.checkInvariants,
	}
	if o.engine == FastEngine {
		cfg.Adversary = o.crashes.build()
		c, err := core.NewCohort(cfg, o.ids)
		if err != nil {
			return nil, err
		}
		res, err := c.Run()
		if err != nil {
			return nil, err
		}
		return resultFromCohort(res, o), nil
	}
	balls, err := core.NewBalls(cfg, o.ids)
	if err != nil {
		return nil, err
	}
	return runReference(o, core.Processes(balls))
}

// renameNaive runs the flat randomized baseline. Failure-free runs use the
// fast central simulation; runs with crashes fall back to the reference
// engine automatically.
func renameNaive(o *options) (*Result, error) {
	if o.crashes.isNone() && o.engine == FastEngine {
		rounds, names, decRounds, err := baseline.RunNaiveFast(o.n, o.seed, o.ids)
		if err != nil {
			return nil, err
		}
		res := newResult(o, rounds, rounds)
		for i, id := range sortedIDs(o.ids) {
			res.Names[uint64(id)] = names[i]
			res.DecisionRound[uint64(id)] = decRounds[i]
		}
		return res, nil
	}
	procs, err := baseline.NewNaiveBalls(o.n, o.seed, o.ids)
	if err != nil {
		return nil, err
	}
	return runReference(o, procs)
}

// runReference drives procs on the lock-step reference engine.
func runReference(o *options, procs []proto.Process) (*Result, error) {
	eng, err := sim.New(sim.Config{Adversary: o.crashes.build(), Budget: o.budget, MaxRounds: o.maxRounds}, procs)
	if err != nil {
		return nil, err
	}
	engRes, err := eng.Run()
	if err != nil {
		return nil, err
	}
	return resultFromEngine(engRes, o), nil
}

// sortedIDs returns the ids in ascending order.
func sortedIDs(in []proto.ID) []proto.ID {
	out := make([]proto.ID, len(in))
	copy(out, in)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
