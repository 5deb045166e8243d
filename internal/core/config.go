// Package core implements the Balls-into-Leaves algorithm (Alistarh,
// Denysyuk, Rodrigues, Shavit, PODC 2014): randomized tight renaming in
// synchronous message-passing systems in O(log log n) communication rounds
// with high probability, tolerating up to n-1 crash failures chosen by a
// strong adaptive adversary.
//
// The package provides two interchangeable implementations, validated
// against each other:
//
//   - Ball: the faithful per-process state machine of Algorithm 1, run as a
//     proto.Process under internal/sim or internal/transport. Every ball keeps
//     its own full local view of the virtual tree, exactly as the paper
//     describes.
//   - Cohort: a fast whole-system simulator exploiting the paper's
//     Proposition 1 (positions of correct balls agree across local views at
//     phase boundaries). It maintains one canonical view and simulates
//     intra-phase view divergence only for the groups of receivers that
//     actually differ, which makes n = 2^20 runs practical.
//
// Three path-selection strategies cover the paper's algorithms and baseline:
// RandomPaths is Algorithm 1; HybridPaths is the §6 early-terminating
// extension (deterministic first phase, random afterwards); and
// DeterministicPaths applies the §6 rank rule in every phase, yielding the
// deterministic comparison-based baseline used by the separation experiment.
package core

import (
	"fmt"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/tree"
)

// PathStrategy selects how balls construct candidate paths each phase.
type PathStrategy uint8

const (
	// RandomPaths is Algorithm 1: at every inner node the ball descends
	// left with probability RemainingCapacity(left)/RemainingCapacity(both),
	// an exact rational coin.
	RandomPaths PathStrategy = iota + 1
	// DeterministicPaths applies the §6 rank rule in every phase: a ball
	// parked at node η targets the r-th free capacity unit below η, where
	// r is its label rank among the balls parked at η. Comparison-based
	// and deterministic; the baseline for the separation experiment.
	DeterministicPaths
	// HybridPaths is the early-terminating extension of §6: phase 1 uses
	// the deterministic rank rule (so a failure-free execution terminates
	// in O(1) rounds), later phases use random paths.
	HybridPaths
	// LevelDescent is the deterministic Θ(log n) comparator: the rank rule
	// with descent capped at one tree level per phase, i.e. the classical
	// "split the group in half each round" structure of deterministic
	// synchronous renaming (Chaudhuri–Herlihy–Tuttle style). Failure-free
	// it takes exactly ceil(log2 n) phases; experiment E2 measures it
	// against the paper's O(log log n) bound.
	LevelDescent
)

// String implements fmt.Stringer.
func (s PathStrategy) String() string {
	switch s {
	case RandomPaths:
		return "random"
	case DeterministicPaths:
		return "deterministic"
	case HybridPaths:
		return "hybrid"
	case LevelDescent:
		return "level-descent"
	default:
		return fmt.Sprintf("PathStrategy(%d)", uint8(s))
	}
}

// Config parameterizes one Balls-into-Leaves system.
type Config struct {
	// N is the number of processes and, equally, target names. Must be at
	// least 1.
	N int
	// Seed drives all randomness; runs are pure functions of
	// (N, Seed, Strategy, adversary).
	Seed uint64
	// Strategy selects path construction; zero means RandomPaths.
	Strategy PathStrategy
	// Arity is the virtual tree's fan-out; zero means 2, the paper's
	// binary tree. Higher arities trade tree depth (shorter paths, fewer
	// levels to descend) for per-node contention — the E13 ablation.
	Arity int

	// UniformCoin is an ablation switch (experiment E12): replace the
	// capacity-weighted coin with a fair coin at every two-way branch.
	UniformCoin bool
	// LabelPriority is an ablation switch (E12): order the move pass by
	// label only, dropping the depth-first component of the paper's <R
	// priority (Definition 1).
	LabelPriority bool
	// NoSyncRound is an ablation switch (E12): drop the second
	// (position-synchronization) round of every phase, so each phase is a
	// single candidate-path round. Failure-free executions still work
	// (views never diverge), but under crashes local views drift apart
	// permanently and uniqueness is violated — demonstrating why
	// Algorithm 1 pays the second round. Supported by Ball only; Cohort
	// rejects it because its whole design rests on phase-boundary
	// synchronization.
	NoSyncRound bool
	// CheckInvariants enables runtime verification of Lemma 1 (subtree
	// capacities), Lemma 2 (balls only move down) and view bookkeeping
	// after every phase, at a constant-factor cost.
	CheckInvariants bool

	// Adversary plans crashes (Cohort only; engine-driven Balls take the
	// adversary from the engine config). Nil means failure-free.
	Adversary adversary.Strategy
	// Budget caps total crashes; zero means N-1.
	Budget int
	// MaxRounds aborts non-quiescing runs; zero means 10*N + 64.
	MaxRounds int
	// Metrics enables per-phase snapshots (contention, depth histograms,
	// busiest-path load) on the Cohort simulator.
	Metrics bool
}

// normalized returns the config with defaults applied.
func (c Config) normalized() Config {
	if c.Strategy == 0 {
		c.Strategy = RandomPaths
	}
	if c.Arity == 0 {
		c.Arity = 2
	}
	if c.Budget <= 0 {
		c.Budget = c.N - 1
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 10*c.N + 64
	}
	return c
}

// validate reports configuration errors.
func (c Config) validate() error {
	if c.N < 1 {
		return fmt.Errorf("core: N must be >= 1, got %d", c.N)
	}
	switch c.Strategy {
	case 0, RandomPaths, DeterministicPaths, HybridPaths, LevelDescent:
	default:
		return fmt.Errorf("core: unknown path strategy %d", c.Strategy)
	}
	if c.Budget > c.N-1 {
		return fmt.Errorf("core: budget %d exceeds n-1 = %d", c.Budget, c.N-1)
	}
	if c.Arity != 0 && (c.Arity < 2 || c.Arity > tree.MaxArity) {
		return fmt.Errorf("core: arity must be in [2,%d], got %d", tree.MaxArity, c.Arity)
	}
	return nil
}

// deterministicPhase reports whether the given phase uses the rank rule.
func (c Config) deterministicPhase(phase int) bool {
	switch c.Strategy {
	case DeterministicPaths, LevelDescent:
		return true
	case HybridPaths:
		return phase == 1
	default:
		return false
	}
}

// pathLimit returns the per-phase descent cap for rank-rule paths (zero
// means unlimited).
func (c Config) pathLimit() int32 {
	if c.Strategy == LevelDescent {
		return 1
	}
	return 0
}
