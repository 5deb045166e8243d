package ballsintoleaves

import (
	"fmt"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/core"
	"ballsintoleaves/internal/ids"
	"ballsintoleaves/internal/proto"
)

// Algorithm selects which renaming algorithm Rename executes.
type Algorithm int

const (
	// BallsIntoLeaves is the paper's Algorithm 1: randomized
	// capacity-weighted descent, O(log log n) rounds w.h.p.
	BallsIntoLeaves Algorithm = iota + 1
	// EarlyTerminating is the §6 extension: a deterministic rank-indexed
	// first phase followed by randomized phases — O(1) rounds failure-free
	// and O(log log f) rounds w.h.p. with f crashes.
	EarlyTerminating
	// RankDescent applies the deterministic rank rule in every phase:
	// comparison-based and deterministic, O(1) rounds failure-free, with
	// round complexity degrading as crashes accumulate.
	RankDescent
	// DeterministicLevelDescent is the Θ(log n) deterministic comparator:
	// rank splitting with one level of descent per phase, the classical
	// structure of deterministic synchronous renaming.
	DeterministicLevelDescent
	// NaiveRandom is the flat baseline: propose uniformly random free
	// names until winning one; Θ(log n) rounds w.h.p.
	NaiveRandom
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case BallsIntoLeaves:
		return "balls-into-leaves"
	case EarlyTerminating:
		return "early-terminating"
	case RankDescent:
		return "rank-descent"
	case DeterministicLevelDescent:
		return "level-descent"
	case NaiveRandom:
		return "naive-random"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// strategy maps the public algorithm to the core path strategy.
func (a Algorithm) strategy() core.PathStrategy {
	switch a {
	case EarlyTerminating:
		return core.HybridPaths
	case RankDescent:
		return core.DeterministicPaths
	case DeterministicLevelDescent:
		return core.LevelDescent
	default:
		return core.RandomPaths
	}
}

// Engine selects the execution substrate.
type Engine int

const (
	// FastEngine is the cohort simulator: exact protocol semantics,
	// whole-system simulation, practical up to millions of processes.
	FastEngine Engine = iota + 1
	// ReferenceEngine drives one faithful state machine per process on the
	// single-threaded lock-step engine. To run those state machines with one
	// goroutine per process, drive them over internal/transport (see
	// examples/transport).
	ReferenceEngine
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case FastEngine:
		return "fast"
	case ReferenceEngine:
		return "reference"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// CrashPlan describes the failure environment of a run. Obtain one from
// NoCrashes, RandomCrashes, SplitterCrash, RankShifterCrashes,
// DeepTargetCrashes or OnePerPhaseCrashes.
type CrashPlan struct {
	name string
	mk   func() adversary.Strategy
}

func (p CrashPlan) isNone() bool { return p.mk == nil }

// build instantiates a fresh adversary (strategies are stateful).
func (p CrashPlan) build() adversary.Strategy {
	if p.mk == nil {
		return adversary.None{}
	}
	return p.mk()
}

// String names the plan.
func (p CrashPlan) String() string {
	if p.name == "" {
		return "none"
	}
	return p.name
}

// NoCrashes is the failure-free environment (the default).
func NoCrashes() CrashPlan { return CrashPlan{} }

// RandomCrashes crashes up to f processes spread over rounds 1..lastRound,
// with random victims and random partial delivery of their final
// broadcasts.
func RandomCrashes(f, lastRound int, seed uint64) CrashPlan {
	return CrashPlan{
		name: fmt.Sprintf("random(f=%d)", f),
		mk:   func() adversary.Strategy { return adversary.NewRandom(f, lastRound, seed) },
	}
}

// SplitterCrash is the paper's §6 pattern: in the given round (1 = the
// membership round), the lowest-labelled process crashes while delivering
// its broadcast to every second process by rank, forcing maximal rank
// disagreement from a single failure.
func SplitterCrash(round int) CrashPlan {
	return CrashPlan{
		name: fmt.Sprintf("splitter(round=%d)", round),
		mk:   func() adversary.Strategy { return &adversary.Splitter{Round: round} },
	}
}

// RankShifterCrashes crashes the lowest-labelled process every phase with
// alternating delivery, sustaining rank disagreement.
func RankShifterCrashes() CrashPlan {
	return CrashPlan{
		name: "rank-shifter",
		mk:   func() adversary.Strategy { return &adversary.RankShifter{} },
	}
}

// DeepTargetCrashes crashes up to perRound processes per round among those
// that already hold names, freeing leaves inconsistently across views.
func DeepTargetCrashes(perRound int, seed uint64) CrashPlan {
	return CrashPlan{
		name: fmt.Sprintf("deep-target(%d/round)", perRound),
		mk:   func() adversary.Strategy { return &adversary.DeepTarget{PerRound: perRound, Seed: seed} },
	}
}

// OnePerPhaseCrashes crashes the median-ranked process once per phase with
// half delivery — a slow-burn adversary.
func OnePerPhaseCrashes() CrashPlan {
	return CrashPlan{
		name: "one-per-phase",
		mk:   func() adversary.Strategy { return &adversary.OnePerPhase{} },
	}
}

// Option configures Rename.
type Option func(*options)

type options struct {
	n               int
	seed            uint64
	algorithm       Algorithm
	engine          Engine
	crashes         CrashPlan
	ids             []proto.ID
	budget          int
	maxRounds       int
	arity           int
	metrics         bool
	checkInvariants bool
}

// WithSeed sets the seed driving all randomness (default 0).
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithAlgorithm selects the algorithm (default BallsIntoLeaves).
func WithAlgorithm(a Algorithm) Option { return func(o *options) { o.algorithm = a } }

// WithEngine selects the execution substrate (default FastEngine).
func WithEngine(e Engine) Option { return func(o *options) { o.engine = e } }

// WithCrashes installs a failure environment (default NoCrashes).
func WithCrashes(p CrashPlan) Option { return func(o *options) { o.crashes = p } }

// WithIDs supplies the processes' original identifiers (default: n distinct
// pseudo-random 64-bit ids derived from the seed). Must be distinct and
// non-zero, one per process.
func WithIDs(identifiers []uint64) Option {
	return func(o *options) {
		o.ids = make([]proto.ID, len(identifiers))
		for i, id := range identifiers {
			o.ids[i] = proto.ID(id)
		}
	}
}

// WithCrashBudget caps total crashes (default n-1, the model's maximum).
func WithCrashBudget(t int) Option { return func(o *options) { o.budget = t } }

// WithMaxRounds overrides the safety cap on rounds (default 10n+64).
func WithMaxRounds(r int) Option { return func(o *options) { o.maxRounds = r } }

// WithTreeArity sets the virtual tree's fan-out (default 2, the paper's
// binary tree; tree algorithms only). Higher arities shorten the tree but
// raise per-node contention — see experiment E13.
func WithTreeArity(k int) Option { return func(o *options) { o.arity = k } }

// WithPhaseMetrics enables per-phase tree statistics in the Result
// (FastEngine only).
func WithPhaseMetrics() Option { return func(o *options) { o.metrics = true } }

// WithInvariantChecks verifies the paper's Lemma 1 / Lemma 2 / view
// bookkeeping invariants at runtime (slower; for tests and debugging).
func WithInvariantChecks() Option { return func(o *options) { o.checkInvariants = true } }

// buildOptions applies defaults and validates.
func buildOptions(n int, opts []Option) (*options, error) {
	if n < 1 {
		return nil, fmt.Errorf("ballsintoleaves: n must be >= 1, got %d", n)
	}
	o := &options{
		n:         n,
		algorithm: BallsIntoLeaves,
		engine:    FastEngine,
	}
	for _, opt := range opts {
		opt(o)
	}
	if o.ids == nil {
		// Generated ids are distinct and non-zero by construction; only
		// user-supplied ids need validating.
		o.ids = ids.Random(n, o.seed^0x1dbadc0de)
	} else {
		if len(o.ids) != n {
			return nil, fmt.Errorf("ballsintoleaves: %d ids for n=%d", len(o.ids), n)
		}
		seen := make(map[proto.ID]bool, n)
		for _, id := range o.ids {
			if id == 0 {
				return nil, fmt.Errorf("ballsintoleaves: ids must be non-zero")
			}
			if seen[id] {
				return nil, fmt.Errorf("ballsintoleaves: duplicate id %v", id)
			}
			seen[id] = true
		}
	}
	switch o.algorithm {
	case BallsIntoLeaves, EarlyTerminating, RankDescent, DeterministicLevelDescent, NaiveRandom:
	default:
		return nil, fmt.Errorf("ballsintoleaves: unknown algorithm %v", o.algorithm)
	}
	switch o.engine {
	case FastEngine, ReferenceEngine:
	default:
		return nil, fmt.Errorf("ballsintoleaves: unknown engine %v", o.engine)
	}
	if o.arity != 0 && o.algorithm == NaiveRandom {
		return nil, fmt.Errorf("ballsintoleaves: tree arity does not apply to NaiveRandom")
	}
	if o.metrics && o.engine != FastEngine {
		return nil, fmt.Errorf("ballsintoleaves: phase metrics require FastEngine")
	}
	return o, nil
}
