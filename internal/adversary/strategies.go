package adversary

import (
	"fmt"

	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/rng"
)

// Splitter implements the §6 single-crash pattern: in the given round, the
// lowest-labelled alive process crashes while delivering its broadcast to
// every second process by label rank. Against deterministic rank-indexed
// leaf choices this single crash forces up to n/2 pairwise collisions,
// because half the survivors see their rank shifted by one.
type Splitter struct {
	// Round is the round to strike; the Balls-into-Leaves init round is 1
	// and the first candidate-path round is 2, so 2 attacks the path
	// choice and 1 attacks group membership.
	Round int
	done  bool
}

// Name implements Strategy.
func (s *Splitter) Name() string { return "splitter" }

// Plan implements Strategy.
func (s *Splitter) Plan(view RoundView) []CrashSpec {
	if s.done || view.Round() != s.Round || view.Budget() < 1 {
		return nil
	}
	alive := view.Alive()
	if len(alive) < 2 {
		return nil
	}
	s.done = true
	victim := alive[0]
	survivors := alive[1:]
	return []CrashSpec{{Victim: victim, Deliver: AlternatingByRank(survivors)}}
}

// AtRound crashes Count processes in a single round. Victims are the
// lowest-labelled alive processes (or highest with FromTop). Delivery
// follows Pattern; the default (zero value) delivers to nobody.
type AtRound struct {
	Round   int
	Count   int
	FromTop bool
	// Pattern builds the delivery predicate for one victim given the
	// surviving processes in ascending order. Nil means DeliverNone.
	Pattern func(survivors []proto.ID) func(proto.ID) bool
	done    bool
}

// Name implements Strategy.
func (a *AtRound) Name() string { return "at-round" }

// Plan implements Strategy.
func (a *AtRound) Plan(view RoundView) []CrashSpec {
	if a.done || view.Round() != a.Round {
		return nil
	}
	a.done = true
	alive := view.Alive()
	count := a.Count
	if count > len(alive)-1 {
		count = len(alive) - 1 // keep at least one process alive
	}
	if count > view.Budget() {
		count = view.Budget()
	}
	if count <= 0 {
		return nil
	}
	victims := make(map[proto.ID]bool, count)
	specs := make([]CrashSpec, 0, count)
	for i := 0; i < count; i++ {
		if a.FromTop {
			victims[alive[len(alive)-1-i]] = true
		} else {
			victims[alive[i]] = true
		}
	}
	var survivors []proto.ID
	for _, id := range alive {
		if !victims[id] {
			survivors = append(survivors, id)
		}
	}
	for id := range victims {
		deliver := DeliverNone
		if a.Pattern != nil {
			deliver = a.Pattern(survivors)
		}
		specs = append(specs, CrashSpec{Victim: id, Deliver: deliver})
	}
	return specs
}

// RankShifter is the sustained version of the splitter, targeting
// deterministic rank-descent algorithms: in every path-choice round (the
// even rounds of the Balls-into-Leaves schedule) it crashes the
// lowest-labelled alive process, delivering to alternating survivors so the
// two halves of the system permanently disagree on ranks. This is the
// comparison-based "order-equivalence" pressure behind the Ω(log n) lower
// bound of Chaudhuri–Herlihy–Tuttle.
type RankShifter struct {
	// Period selects which rounds strike: rounds r with r % Period ==
	// Phase are attacked. The default (0,0) is normalized to (2,0),
	// striking every path round.
	Period int
	Phase  int
}

// Name implements Strategy.
func (r *RankShifter) Name() string { return "rank-shifter" }

// Plan implements Strategy.
func (r *RankShifter) Plan(view RoundView) []CrashSpec {
	period, phase := r.Period, r.Phase
	if period <= 0 {
		period, phase = 2, 0
	}
	if view.Round()%period != phase || view.Budget() < 1 {
		return nil
	}
	alive := view.Alive()
	if len(alive) < 3 {
		return nil
	}
	return []CrashSpec{{Victim: alive[0], Deliver: AlternatingByRank(alive[1:])}}
}

// DeepTarget attacks progress: each round it crashes up to PerRound
// processes that have already reached a leaf (hold a name), freeing their
// leaves in some views and not others. §5.3 argues such crashes cannot slow
// the algorithm; experiment E4 measures that claim.
type DeepTarget struct {
	PerRound int
	Seed     uint64
	src      *rng.Source
}

// Name implements Strategy.
func (d *DeepTarget) Name() string { return "deep-target" }

// Plan implements Strategy.
func (d *DeepTarget) Plan(view RoundView) []CrashSpec {
	if d.src == nil {
		d.src = rng.Derive(d.Seed, 0xdeeb)
	}
	per := d.PerRound
	if per <= 0 {
		per = 1
	}
	alive := view.Alive()
	var atLeaf []proto.ID
	for _, id := range alive {
		if info, ok := view.Info(id); ok && info.AtLeaf {
			atLeaf = append(atLeaf, id)
		}
	}
	var specs []CrashSpec
	for i := 0; i < per && len(atLeaf) > 0 && len(specs) < view.Budget(); i++ {
		idx := d.src.Intn(len(atLeaf))
		victim := atLeaf[idx]
		atLeaf = append(atLeaf[:idx:idx], atLeaf[idx+1:]...)
		// Deliver to a random half so views disagree about the freed leaf.
		recvSrc := rng.Derive(d.Seed^uint64(victim), uint64(view.Round()))
		received := make(map[proto.ID]bool)
		for _, id := range alive {
			if id != victim && recvSrc.Coin(1, 2) {
				received[id] = true
			}
		}
		specs = append(specs, CrashSpec{Victim: victim, Deliver: DeliverToSet(received)})
	}
	return specs
}

// OnePerPhase crashes exactly one process per protocol phase (every Period
// rounds), alternating delivery halves — a slow-burn adversary for the
// deterministic-termination experiment E8.
type OnePerPhase struct {
	Period int
}

// Name implements Strategy.
func (o *OnePerPhase) Name() string { return "one-per-phase" }

// Plan implements Strategy.
func (o *OnePerPhase) Plan(view RoundView) []CrashSpec {
	period := o.Period
	if period <= 0 {
		period = 2
	}
	if view.Round()%period != 0 || view.Budget() < 1 {
		return nil
	}
	alive := view.Alive()
	if len(alive) < 3 {
		return nil
	}
	// Crash the median-ranked process: it shifts the most ranks below it
	// while staying unpredictable to label-indexed schemes.
	victim := alive[len(alive)/2]
	var survivors []proto.ID
	for _, id := range alive {
		if id != victim {
			survivors = append(survivors, id)
		}
	}
	return []CrashSpec{{Victim: victim, Deliver: PrefixByRank(survivors, len(survivors)/2)}}
}

// Scripted crashes one named victim in one named round, delivering its
// final broadcast to alternating survivors by rank (the splitter pattern,
// but with the victim chosen by identity rather than by rank). Because the
// schedule is fully determined by (Round, Victim), the same Scripted value
// reproduces the same execution on every engine — internal/sim and the
// transport layer's coordinators — which is what
// the transport-vs-sim equivalence tests and blserve's
// -crash-round/-crash-id fault injection rely on.
//
// Construct with NewScripted to have the schedule validated; multi-crash
// schedules go through NewScript.
type Scripted struct {
	// Round is the 1-based round in which the victim crashes
	// mid-broadcast.
	Round int
	// Victim is the original identifier of the process to crash. If it is
	// not alive in that round the script is a no-op.
	Victim proto.ID
	done   bool
}

// Name implements Strategy.
func (s *Scripted) Name() string { return "scripted" }

// Plan implements Strategy.
func (s *Scripted) Plan(view RoundView) []CrashSpec {
	if s.done || view.Round() != s.Round || view.Budget() < 1 {
		return nil
	}
	alive := view.Alive()
	if len(alive) == 0 {
		return nil
	}
	survivors := make([]proto.ID, 0, len(alive)-1)
	found := false
	for _, id := range alive {
		if id == s.Victim {
			found = true
		} else {
			survivors = append(survivors, id)
		}
	}
	if !found {
		return nil
	}
	s.done = true
	return []CrashSpec{{Victim: s.Victim, Deliver: AlternatingByRank(survivors)}}
}

// NewScripted validates and builds a single-crash script: the round must
// be positive and the victim non-zero (engines reject zero process IDs, so
// a zero victim is always a schedule bug, not a no-op).
func NewScripted(round int, victim proto.ID) (*Scripted, error) {
	if round < 1 {
		return nil, fmt.Errorf("adversary: scripted round must be >= 1, got %d", round)
	}
	if victim == 0 {
		return nil, fmt.Errorf("adversary: scripted victim must be non-zero")
	}
	return &Scripted{Round: round, Victim: victim}, nil
}

// ScriptEntry names one crash of a multi-crash script: the given victim
// crashes mid-broadcast in the given round, delivering to alternating
// survivors by rank.
type ScriptEntry struct {
	Round  int
	Victim proto.ID
}

// Script is the validated multi-crash generalization of Scripted: a fixed
// schedule of (round, victim) crashes, each delivering its final broadcast
// to alternating survivors. Schedules are validated at construction —
// non-positive rounds, out-of-order rounds, zero or duplicate victims are
// construction errors rather than silently dropped entries. At plan time
// an entry is skipped (exactly as an unavailable Scripted victim is) when
// its victim is no longer alive or the engine's crash budget is exhausted;
// skipped victims stay in the survivor delivery set, since they keep
// executing.
type Script struct {
	entries []ScriptEntry
	next    int
}

// NewScript validates and builds a crash schedule.
func NewScript(entries ...ScriptEntry) (*Script, error) {
	seen := make(map[proto.ID]int, len(entries))
	for i, e := range entries {
		if e.Round < 1 {
			return nil, fmt.Errorf("adversary: script entry %d: round must be >= 1, got %d", i, e.Round)
		}
		if e.Victim == 0 {
			return nil, fmt.Errorf("adversary: script entry %d: victim must be non-zero", i)
		}
		if i > 0 && e.Round < entries[i-1].Round {
			return nil, fmt.Errorf("adversary: script entry %d: round %d after round %d (schedule must be in round order)",
				i, e.Round, entries[i-1].Round)
		}
		if prev, dup := seen[e.Victim]; dup {
			return nil, fmt.Errorf("adversary: script entries %d and %d both crash victim %v", prev, i, e.Victim)
		}
		seen[e.Victim] = i
	}
	return &Script{entries: append([]ScriptEntry(nil), entries...)}, nil
}

// Name implements Strategy.
func (s *Script) Name() string { return "script" }

// Plan implements Strategy.
func (s *Script) Plan(view RoundView) []CrashSpec {
	// Entries are in round order, so the schedule is a cursor: skip past
	// rounds (a strategy is never consulted for the same round twice), then
	// plan every entry for this round.
	for s.next < len(s.entries) && s.entries[s.next].Round < view.Round() {
		s.next++
	}
	if s.next >= len(s.entries) || s.entries[s.next].Round != view.Round() {
		return nil
	}
	var victims []proto.ID
	for s.next < len(s.entries) && s.entries[s.next].Round == view.Round() {
		victims = append(victims, s.entries[s.next].Victim)
		s.next++
	}
	// Decide who actually crashes first: absent victims and entries beyond
	// the engine's remaining budget stay alive, so they must remain in the
	// survivor set and keep receiving deliveries. Same-round victims never
	// deliver to each other (they stopped executing), so every crashing
	// victim's alternating pattern ranks the same survivor set.
	alive := view.Alive()
	aliveSet := make(map[proto.ID]bool, len(alive))
	for _, id := range alive {
		aliveSet[id] = true
	}
	crashing := make(map[proto.ID]bool, len(victims))
	order := make([]proto.ID, 0, len(victims))
	for _, v := range victims {
		if aliveSet[v] && !crashing[v] && len(order) < view.Budget() {
			crashing[v] = true
			order = append(order, v)
		}
	}
	if len(order) == 0 {
		return nil
	}
	survivors := make([]proto.ID, 0, len(alive))
	for _, id := range alive {
		if !crashing[id] {
			survivors = append(survivors, id)
		}
	}
	specs := make([]CrashSpec, 0, len(order))
	for _, v := range order {
		specs = append(specs, CrashSpec{Victim: v, Deliver: AlternatingByRank(survivors)})
	}
	return specs
}

// Recorder wraps a Strategy and records every crash it actually planned,
// for assertions in tests and for replaying executions.
type Recorder struct {
	Inner Strategy
	Log   []RecordedCrash
}

// RecordedCrash is one crash the wrapped strategy planned.
type RecordedCrash struct {
	Round  int
	Victim proto.ID
}

// Name implements Strategy.
func (r *Recorder) Name() string { return r.Inner.Name() + "+recorded" }

// Plan implements Strategy.
func (r *Recorder) Plan(view RoundView) []CrashSpec {
	specs := r.Inner.Plan(view)
	for _, s := range specs {
		r.Log = append(r.Log, RecordedCrash{Round: view.Round(), Victim: s.Victim})
	}
	return specs
}
