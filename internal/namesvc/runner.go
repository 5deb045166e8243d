package namesvc

import (
	"fmt"

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
// Service each shard gets a forked instance holding a small cache of
// reusable cohorts keyed by batch size, so steady-state epochs reset and
// rerun a cached cohort without touching the heap (the topology itself is
// shared process-wide via tree.Shared).
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

// Assign implements Runner (the uncached one-shot path).
func (r CohortRunner) Assign(seed uint64, labels []proto.ID, ranks []int) error {
	return r.Fork().Assign(seed, labels, ranks)
}

// Fork implements forkableRunner.
func (r CohortRunner) Fork() Runner {
	return &cohortEngine{strategy: r.strategy(), cache: make(map[int]*core.Cohort)}
}

// cohortEngineCacheCap bounds the per-shard cohort cache. Distinct batch
// sizes each cost O(n) reusable state; real traffic concentrates on a few
// steady-state sizes, and anything evicted is simply rebuilt on next use.
const cohortEngineCacheCap = 16

// cohortEngine is one shard's private CohortRunner state: reusable cohorts
// keyed by batch size, evicted FIFO beyond cohortEngineCacheCap.
type cohortEngine struct {
	strategy core.PathStrategy
	cache    map[int]*core.Cohort
	order    []int // cache keys, insertion order
}

// Name implements Runner.
func (e *cohortEngine) Name() string {
	return CohortRunner{Strategy: e.strategy}.Name()
}

// Assign implements Runner: reset-and-rerun a cached cohort when one of
// this batch size exists (the allocation-free steady state), or build and
// cache one.
func (e *cohortEngine) Assign(seed uint64, labels []proto.ID, ranks []int) error {
	n := len(labels)
	c := e.cache[n]
	if c == nil {
		var err error
		c, err = core.NewCohort(core.Config{N: n, Seed: seed, Strategy: e.strategy}, labels)
		if err != nil {
			return err
		}
		if len(e.cache) >= cohortEngineCacheCap {
			delete(e.cache, e.order[0])
			e.order = e.order[1:]
		}
		e.cache[n] = c
		e.order = append(e.order, n)
	} else if err := c.Reset(seed, labels); err != nil {
		return err
	}
	if err := c.RunToQuiescence(); err != nil {
		// The cohort's state is mid-run; drop it (cache and eviction order)
		// so the retry rebuilds.
		delete(e.cache, n)
		for i, k := range e.order {
			if k == n {
				e.order = append(e.order[:i], e.order[i+1:]...)
				break
			}
		}
		return err
	}
	for i, l := range labels {
		idx, ok := c.IndexOf(l)
		if !ok {
			return fmt.Errorf("namesvc: label %v missing from cohort", l)
		}
		name, _, decided := c.DecisionOf(idx)
		if !decided {
			return fmt.Errorf("namesvc: label %v did not decide", l)
		}
		ranks[i] = name
	}
	return nil
}
