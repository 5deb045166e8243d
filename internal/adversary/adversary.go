// Package adversary implements the strong adaptive adversary of the paper's
// model (§3): before each round's delivery, the adversary observes all
// process states, the payloads about to be broadcast, and the outcomes of
// the round's coin flips (they are encoded in the payloads), then chooses
// which processes crash and — crucially — which subset of recipients still
// receives each crashing process's final broadcast.
//
// The reference engine (internal/sim), the fast cohort simulator
// (internal/core) and the transports' fault injection (internal/transport)
// drive the same Strategy interface, so a
// strategy written once can attack any algorithm on any engine. Engines
// enforce the global crash budget t < n; strategies may consult the
// remaining budget through the RoundView.
package adversary

import (
	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/rng"
)

// BallInfo is the protocol-independent state snapshot engines expose to
// strategies, supporting "strong adversary" attacks that target processes by
// their algorithmic progress (e.g. depth in the virtual tree).
type BallInfo struct {
	Label  proto.ID
	Depth  int  // depth of the process's current tree position (0 = root)
	AtLeaf bool // true once the process occupies a leaf / holds a name
}

// RoundView is the adversary's window into the round about to be delivered.
type RoundView interface {
	// Round is the 1-based round number being delivered.
	Round() int
	// N is the total number of processes in the system.
	N() int
	// Alive lists processes that have not crashed, in ascending ID order.
	// Processes that halted normally are not listed.
	Alive() []proto.ID
	// Payload returns the message the given process is broadcasting this
	// round, or nil. The slice must not be modified.
	Payload(id proto.ID) []byte
	// Info returns the protocol state snapshot for the given process, if
	// the engine exposes one.
	Info(id proto.ID) (BallInfo, bool)
	// Budget returns the number of crashes still allowed.
	Budget() int
}

// CrashSpec instructs the engine to crash Victim during this round's
// broadcast. Deliver selects the recipients that still receive the victim's
// final message; a nil Deliver delivers to nobody. The victim itself never
// processes further deliveries regardless of Deliver.
type CrashSpec struct {
	Victim  proto.ID
	Deliver func(to proto.ID) bool
}

// Strategy plans crashes. Plan is invoked exactly once per round, after
// payload collection and before delivery. Implementations must be
// deterministic given their construction parameters; randomized strategies
// must derive randomness from an explicit seed.
type Strategy interface {
	Name() string
	Plan(view RoundView) []CrashSpec
}

// DeliverNone suppresses the victim's final broadcast entirely.
func DeliverNone(proto.ID) bool { return false }

// DeliverAll lets the final broadcast reach every recipient; the crash is
// then only visible from the victim's silence in later rounds.
func DeliverAll(proto.ID) bool { return true }

// DeliverToSet delivers only to the given recipients.
func DeliverToSet(set map[proto.ID]bool) func(proto.ID) bool {
	return func(to proto.ID) bool { return set[to] }
}

// AlternatingByRank delivers to every second process of the given
// ascending-ordered slice, starting with rank 0 — the §6 "splitter" pattern
// that makes surviving processes pairwise collide on rank-indexed choices.
func AlternatingByRank(ordered []proto.ID) func(proto.ID) bool {
	rank := make(map[proto.ID]int, len(ordered))
	for i, id := range ordered {
		rank[id] = i
	}
	return func(to proto.ID) bool {
		r, ok := rank[to]
		return ok && r%2 == 0
	}
}

// PrefixByRank delivers to the first k processes of the given
// ascending-ordered slice.
func PrefixByRank(ordered []proto.ID, k int) func(proto.ID) bool {
	set := make(map[proto.ID]bool, k)
	for i, id := range ordered {
		if i >= k {
			break
		}
		set[id] = true
	}
	return func(to proto.ID) bool { return set[to] }
}

// None is the failure-free strategy.
type None struct{}

// Name implements Strategy.
func (None) Name() string { return "none" }

// Plan implements Strategy; it never crashes anyone.
func (None) Plan(RoundView) []CrashSpec { return nil }

// Func adapts a closure into a Strategy, for scripted attacks in tests.
type Func struct {
	Label string
	Fn    func(view RoundView) []CrashSpec
}

// Name implements Strategy.
func (f Func) Name() string { return f.Label }

// Plan implements Strategy.
func (f Func) Plan(view RoundView) []CrashSpec {
	if f.Fn == nil {
		return nil
	}
	return f.Fn(view)
}

// Random crashes up to F processes, spread over rounds 1..LastRound, with
// independently random victims and random per-recipient delivery. It models
// an unlucky (rather than surgically adaptive) environment.
type Random struct {
	F         int
	LastRound int
	Seed      uint64

	src     *rng.Source
	planned int
}

// NewRandom returns a Random strategy with its own deterministic stream.
func NewRandom(f, lastRound int, seed uint64) *Random {
	return &Random{F: f, LastRound: lastRound, Seed: seed, src: rng.Derive(seed, 0xadef)}
}

// Name implements Strategy.
func (r *Random) Name() string { return "random" }

// Plan implements Strategy.
func (r *Random) Plan(view RoundView) []CrashSpec {
	if r.src == nil {
		r.src = rng.Derive(r.Seed, 0xadef)
	}
	if r.planned >= r.F || view.Round() > r.LastRound {
		return nil
	}
	alive := view.Alive()
	if len(alive) <= 1 {
		return nil
	}
	// Aim to exhaust the budget by LastRound: expected share per round.
	remainingRounds := r.LastRound - view.Round() + 1
	quota := (r.F - r.planned + remainingRounds - 1) / remainingRounds
	var specs []CrashSpec
	for i := 0; i < quota && r.planned < r.F && len(alive) > 1; i++ {
		idx := r.src.Intn(len(alive))
		victim := alive[idx]
		alive = append(alive[:idx:idx], alive[idx+1:]...)
		// Random partial delivery: each recipient hears the final
		// broadcast with probability 1/2, decided by a victim-specific
		// stream so delivery is deterministic per (seed, victim, round).
		recvSrc := rng.Derive(r.Seed^uint64(victim), uint64(view.Round()))
		received := make(map[proto.ID]bool)
		for _, id := range view.Alive() {
			if id != victim && recvSrc.Coin(1, 2) {
				received[id] = true
			}
		}
		specs = append(specs, CrashSpec{Victim: victim, Deliver: DeliverToSet(received)})
		r.planned++
	}
	return specs
}
