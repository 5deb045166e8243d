package namesvc

import (
	"ballsintoleaves/internal/core"
	"ballsintoleaves/internal/proto"
)

// Runner executes one renaming instance for an epoch batch: given the batch
// members' labels (distinct, non-zero, in queue order) it fills ranks[i]
// ∈ 1..len(labels) — member i's tight new name within the batch — forming a
// permutation. ranks always has len(labels). The service maps rank r onto
// the r-th smallest free name of the shard.
//
// Implementations must be deterministic in (seed, labels): the replay
// guarantee of the whole service reduces to this contract. Implementations
// should write only into ranks and allocate as little as possible — the
// service's steady-state epoch path is allocation-free end to end when the
// runner is (guarded by TestEpochZeroAllocs for the cohort fast path).
type Runner interface {
	Name() string
	Assign(seed uint64, labels []proto.ID, ranks []int) error
}

// forkableRunner is the optional extension for runners that keep mutable
// per-instance scratch: the Service calls Fork once per shard, so each
// shard's epoch loop owns a private instance and shards never contend on
// (or corrupt) shared runner state.
type forkableRunner interface {
	Fork() Runner
}

// forkRunner returns the per-shard instance of a configured runner:
// stateful runners are forked, stateless ones shared.
func forkRunner(r Runner) Runner {
	if f, ok := r.(forkableRunner); ok {
		return f.Fork()
	}
	return r
}

// CohortRunner runs epochs on the in-process core.Cohort fast path — the
// whole-system simulator that executes the identical protocol as n real
// processes. This is the production configuration for a single-box daemon:
// hundreds of thousands of assignments per second.
//
// The zero value works but builds a fresh cohort per epoch; inside a
// Service each shard gets a forked instance holding one cohort, re-armed
// every epoch at that epoch's batch size, so once a shard has seen its
// largest batch an epoch of any size runs without touching the heap.
type CohortRunner struct {
	// Strategy selects path construction; zero means core.HybridPaths,
	// whose deterministic first phase terminates failure-free batches in a
	// single phase — the fastest epoch.
	Strategy core.PathStrategy
}

// Name implements Runner.
func (r CohortRunner) Name() string { return "cohort/" + r.strategy().String() }

func (r CohortRunner) strategy() core.PathStrategy {
	if r.Strategy == 0 {
		return core.HybridPaths
	}
	return r.Strategy
}

// Assign implements Runner (the one-shot path: a fresh cohort per call).
func (r CohortRunner) Assign(seed uint64, labels []proto.ID, ranks []int) error {
	return r.Fork().Assign(seed, labels, ranks)
}

// Fork implements forkableRunner.
func (r CohortRunner) Fork() Runner {
	return &cohortEngine{strategy: r.strategy()}
}

// cohortEngine is one shard's private CohortRunner state: a single cohort,
// built by the shard's first epoch and re-armed by every later one. What it
// retains is the cohort's per-ball arrays at the largest batch the shard
// has closed; tree shapes belong to tree.Shared, whose bounded table is
// shared by every shard in the process.
type cohortEngine struct {
	strategy core.PathStrategy
	cohort   *core.Cohort
}

// Name implements Runner.
func (e *cohortEngine) Name() string {
	return CohortRunner{Strategy: e.strategy}.Name()
}

// Assign implements Runner: re-arm the shard's cohort at this batch's size,
// run it, and read the decisions in label order. A run that fails leaves
// nothing to clean up: the next Reset re-arms every field.
func (e *cohortEngine) Assign(seed uint64, labels []proto.ID, ranks []int) error {
	if e.cohort == nil {
		c, err := core.NewCohort(core.Config{N: len(labels), Seed: seed, Strategy: e.strategy}, labels)
		if err != nil {
			return err
		}
		e.cohort = c
	} else if err := e.cohort.Reset(seed, labels); err != nil {
		return err
	}
	if err := e.cohort.RunToQuiescence(); err != nil {
		return err
	}
	return e.cohort.DecidedNames(labels, ranks)
}
