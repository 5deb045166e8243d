package core

import (
	"testing"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/ids"
	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/sim"
	"ballsintoleaves/internal/tree"
)

var _ sim.Introspector = (*Ball)(nil)

// runBalls drives a Ball system on the reference engine.
func runBalls(t *testing.T, cfg Config, labels []proto.ID, engCfg sim.Config) sim.Result {
	t.Helper()
	balls, err := NewBalls(cfg, labels)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.New(engCfg, Processes(balls))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBallFailureFreeSolvesTightRenaming(t *testing.T) {
	t.Parallel()
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16, 33, 64} {
		cfg := Config{N: n, Seed: 42, CheckInvariants: true}
		res := runBalls(t, cfg, ids.Random(n, 7), sim.Config{})
		if len(res.Decisions) != n {
			t.Fatalf("n=%d: %d decisions", n, len(res.Decisions))
		}
		if err := proto.Validate(res.Decisions, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBallRoundsGrowSlowly(t *testing.T) {
	t.Parallel()
	// O(log log n) means even n=256 should comfortably finish in far fewer
	// rounds than the deterministic log n bound; use a loose cap that a
	// logarithmic-round algorithm would breach.
	cfg := Config{N: 256, Seed: 1}
	res := runBalls(t, cfg, ids.Random(256, 1), sim.Config{})
	if res.Rounds > 17 { // 1 init + 2*8 phases is already generous
		t.Fatalf("256 balls took %d rounds", res.Rounds)
	}
}

func TestBallSingleProcess(t *testing.T) {
	t.Parallel()
	cfg := Config{N: 1, Seed: 9, CheckInvariants: true}
	res := runBalls(t, cfg, ids.Random(1, 3), sim.Config{})
	if len(res.Decisions) != 1 || res.Decisions[0].Name != 1 {
		t.Fatalf("decisions = %+v", res.Decisions)
	}
	if res.Rounds != 3 { // init + one 2-round phase
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
}

func TestBallHybridFailureFreeConstantRounds(t *testing.T) {
	t.Parallel()
	// Theorem 3: the early-terminating variant is deterministic O(1)
	// rounds without failures: the rank rule assigns distinct leaves in
	// phase 1, so every run takes exactly init + one phase = 3 rounds.
	for _, n := range []int{2, 5, 16, 64, 200} {
		cfg := Config{N: n, Seed: uint64(n), Strategy: HybridPaths, CheckInvariants: true}
		res := runBalls(t, cfg, ids.Random(n, uint64(n)+1), sim.Config{})
		if res.Rounds != 3 {
			t.Fatalf("n=%d: hybrid failure-free took %d rounds, want 3", n, res.Rounds)
		}
		if err := proto.Validate(res.Decisions, n); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// The rank rule is order-preserving in the failure-free case.
		for i := 1; i < len(res.Decisions); i++ {
			if res.Decisions[i].Name <= res.Decisions[i-1].Name {
				t.Fatalf("n=%d: hybrid failure-free names not order-preserving: %+v", n, res.Decisions)
			}
		}
	}
}

func TestBallDeterministicStrategyFailureFree(t *testing.T) {
	t.Parallel()
	cfg := Config{N: 32, Seed: 5, Strategy: DeterministicPaths, CheckInvariants: true}
	res := runBalls(t, cfg, ids.Random(32, 11), sim.Config{})
	if res.Rounds != 3 {
		t.Fatalf("deterministic failure-free took %d rounds, want 3", res.Rounds)
	}
	if err := proto.Validate(res.Decisions, 32); err != nil {
		t.Fatal(err)
	}
}

func TestBallSurvivesSplitterCrash(t *testing.T) {
	t.Parallel()
	// §6: a single crash delivering to every second process forces rank
	// disagreement; the algorithm must still rename correctly.
	for _, strategy := range []PathStrategy{RandomPaths, DeterministicPaths, HybridPaths} {
		for _, round := range []int{1, 2, 3} {
			cfg := Config{N: 32, Seed: 77, Strategy: strategy, CheckInvariants: true}
			res := runBalls(t, cfg, ids.Random(32, 13),
				sim.Config{Adversary: &adversary.Splitter{Round: round}})
			if len(res.Crashed) != 1 {
				t.Fatalf("strategy=%v round=%d: crashes = %v", strategy, round, res.Crashed)
			}
			if len(res.Decisions) != 31 {
				t.Fatalf("strategy=%v round=%d: %d decisions", strategy, round, len(res.Decisions))
			}
			if err := proto.Validate(res.Decisions, 32); err != nil {
				t.Fatalf("strategy=%v round=%d: %v", strategy, round, err)
			}
		}
	}
}

func TestBallSurvivesRandomCrashes(t *testing.T) {
	t.Parallel()
	const n = 48
	for seed := uint64(0); seed < 8; seed++ {
		adv := adversary.NewRandom(n/3, 9, seed)
		cfg := Config{N: n, Seed: seed, CheckInvariants: true}
		res := runBalls(t, cfg, ids.Random(n, seed+100), sim.Config{Adversary: adv})
		if err := proto.Validate(res.Decisions, n); err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		if len(res.Decisions)+len(res.Crashed) != n {
			t.Fatalf("seed=%d: %d decisions + %d crashed != %d",
				seed, len(res.Decisions), len(res.Crashed), n)
		}
	}
}

func TestBallRejectsBadConfig(t *testing.T) {
	t.Parallel()
	if _, err := NewBalls(Config{N: 0}, nil); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := NewBalls(Config{N: 2}, []proto.ID{1}); err == nil {
		t.Fatal("label count mismatch accepted")
	}
	if _, err := NewBalls(Config{N: 2}, []proto.ID{5, 5}); err == nil {
		t.Fatal("duplicate labels accepted")
	}
	if _, err := NewBalls(Config{N: 3, Budget: 3}, []proto.ID{1, 2, 3}); err == nil {
		t.Fatal("budget >= n accepted")
	}
}

func TestBallDeterministicReplay(t *testing.T) {
	t.Parallel()
	labels := ids.Random(24, 3)
	run := func() sim.Result {
		return runBalls(t, Config{N: 24, Seed: 5}, labels, sim.Config{})
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || len(a.Decisions) != len(b.Decisions) {
		t.Fatalf("replay diverged: %d/%d rounds", a.Rounds, b.Rounds)
	}
	for i := range a.Decisions {
		if a.Decisions[i] != b.Decisions[i] {
			t.Fatalf("replay decision %d diverged: %+v vs %+v", i, a.Decisions[i], b.Decisions[i])
		}
	}
}

func TestBallToleratesMalformedPayloads(t *testing.T) {
	t.Parallel()
	topo := tree.NewTopology(4)
	cfg := Config{N: 4, Seed: 1}.normalized()
	b, err := NewBall(cfg, topo, 10)
	if err != nil {
		t.Fatal(err)
	}
	b.Send(1)
	b.Deliver(1, []proto.Message{
		{From: 10, Payload: []byte{msgJoin}},
		{From: 20, Payload: []byte{msgJoin}},
		{From: 30, Payload: []byte{99}}, // wrong kind: dropped
		{From: 40, Payload: nil},        // empty: dropped
	})
	if got := b.View().Size(); got != 2 {
		t.Fatalf("view size = %d, want 2 (malformed joins dropped)", got)
	}
	if b.DecodeErrors() != 2 {
		t.Fatalf("decode errors = %d, want 2", b.DecodeErrors())
	}
}
