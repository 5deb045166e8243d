package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/proto"
)

// TestCohortResetReplaysFresh pins the reuse contract behind the name
// service's epoch engine: one cohort re-armed along a random walk of sizes —
// 1, 2, primes, 200+, growing and shrinking, across the dense/most-recently-
// used boundary of tree.Shared — must at every step produce a run identical
// to a freshly constructed cohort over the same (seed, labels): decisions,
// rounds, messages, bytes and crash order, failure-free and under a scripted
// crash schedule.
func TestCohortResetReplaysFresh(t *testing.T) {
	t.Parallel()
	sizes := []int{64, 1, 2, 211, 3, 97, 257, 5, 128, 2, 300, 13, 64, 64, 1}
	// Stateless in everything but the round view, so one instance serves the
	// reused cohort and every fresh one: in rounds 1–5 (join, then two phases'
	// path and position broadcasts) the alive ball of rank round mod |alive|
	// crashes, delivering to every other survivor.
	crashes := adversary.Func{Label: "rank-by-round", Fn: func(v adversary.RoundView) []adversary.CrashSpec {
		alive := v.Alive()
		if v.Round() > 5 || len(alive) < 2 || v.Budget() < 1 {
			return nil
		}
		victim := alive[v.Round()%len(alive)]
		var survivors []proto.ID
		for _, id := range alive {
			if id != victim {
				survivors = append(survivors, id)
			}
		}
		return []adversary.CrashSpec{{Victim: victim, Deliver: adversary.AlternatingByRank(survivors)}}
	}}
	for _, strategy := range []PathStrategy{RandomPaths, HybridPaths, DeterministicPaths} {
		for _, adv := range []adversary.Strategy{nil, crashes} {
			cfg := Config{N: sizes[0], Seed: 1, Strategy: strategy, Adversary: adv, CheckInvariants: true}
			reused, err := NewCohort(cfg, seqLabels(sizes[0], 1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reused.Run(); err != nil {
				t.Fatal(err)
			}
			walk := rand.New(rand.NewSource(int64(strategy)))
			for step, n := range append(sizes, 1+walk.Intn(300), 1+walk.Intn(300), 1+walk.Intn(300)) {
				seed := uint64(step + 2)
				labels := seqLabels(n, 1000*seed)
				walk.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })
				if err := reused.Reset(seed, labels); err != nil {
					t.Fatal(err)
				}
				got, err := reused.Run()
				if err != nil {
					t.Fatal(err)
				}
				cfg.N, cfg.Seed = n, seed
				fresh, err := NewCohort(cfg, labels)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("strategy %v adversary %v step %d (n=%d): reused run diverged from fresh:\n%+v\nvs\n%+v",
						strategy, adv != nil, step, n, got, want)
				}
				if !slices.Equal(reused.crashed, fresh.crashed) {
					t.Fatalf("strategy %v step %d (n=%d): crash order %v, fresh %v", strategy, step, n, reused.crashed, fresh.crashed)
				}
				if adv != nil && n > 2 && got.Crashes == 0 {
					t.Fatalf("step %d (n=%d): the crash schedule crashed nobody", step, n)
				}
			}
		}
	}
}

// TestCohortResetValidates covers Reset's error paths — an empty label set
// and duplicate labels; a label count other than the previous one is legal —
// and that a rejected size leaves the cohort usable.
func TestCohortResetValidates(t *testing.T) {
	t.Parallel()
	c, err := NewCohort(Config{N: 4, Seed: 1}, seqLabels(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Reset(2, nil); err == nil {
		t.Fatal("Reset with no labels succeeded")
	}
	if err := c.Reset(2, []proto.ID{1, 2, 2, 3}); err == nil {
		t.Fatal("Reset with duplicate labels succeeded")
	}
	if err := c.Reset(2, []proto.ID{1, 2, 2}); err == nil {
		t.Fatal("Reset with duplicate labels at a new size succeeded")
	}
	if err := c.Reset(2, seqLabels(3, 1)); err != nil {
		t.Fatalf("Reset at a different label count: %v", err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 3 || len(res.Decisions) != 3 {
		t.Fatalf("re-armed at 3 labels, ran N=%d with %d decisions", res.N, len(res.Decisions))
	}
	// A crash budget is validated against each size it is re-armed at.
	b, err := NewCohort(Config{N: 8, Seed: 1, Budget: 5}, seqLabels(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Reset(2, seqLabels(4, 1)); err == nil {
		t.Fatal("Reset to 4 labels with a crash budget of 5 succeeded")
	}
}

// TestCohortResetRunZeroAllocs guards the epoch fast path end to end at the
// core layer: once warm at its largest size, Reset + RunToQuiescence of a
// failure-free cohort must not allocate — at that size or, re-sliced, at
// any smaller one.
func TestCohortResetRunZeroAllocs(t *testing.T) {
	const n = 256
	c, err := NewCohort(Config{N: n, Seed: 1, Strategy: HybridPaths}, seqLabels(n, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	labels := seqLabels(n, 500)
	// Warm: the first reset run may grow lazily allocated scratch.
	if err := c.Reset(2, labels); err != nil {
		t.Fatal(err)
	}
	if err := c.RunToQuiescence(); err != nil {
		t.Fatal(err)
	}
	seed := uint64(3)
	allocs := testing.AllocsPerRun(8, func() {
		for i := range labels {
			labels[i] += proto.ID(n)
		}
		// 256, 219, 182, ... : a different size every run, each below the
		// warm-up's.
		size := n - int(seed-3)*37%n
		if err := c.Reset(seed, labels[:size]); err != nil {
			t.Fatal(err)
		}
		seed++
		if err := c.RunToQuiescence(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Reset+RunToQuiescence allocated %v objects at steady state, want 0", allocs)
	}
}

// seqLabels returns n distinct ascending labels starting at base.
func seqLabels(n int, base uint64) []proto.ID {
	out := make([]proto.ID, n)
	for i := range out {
		out[i] = proto.ID(base + uint64(i))
	}
	return out
}
