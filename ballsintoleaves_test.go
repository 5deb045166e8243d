package ballsintoleaves

import (
	"testing"
)

// checkTight validates tight renaming on a public Result.
func checkTight(t *testing.T, res *Result, wantDecided int) {
	t.Helper()
	if len(res.Names) != wantDecided {
		t.Fatalf("%d names, want %d", len(res.Names), wantDecided)
	}
	seen := make(map[int]bool, len(res.Names))
	for id, name := range res.Names {
		if name < 1 || name > res.N {
			t.Fatalf("id %x decided %d outside 1..%d", id, name, res.N)
		}
		if seen[name] {
			t.Fatalf("duplicate name %d", name)
		}
		seen[name] = true
	}
}

func TestRenameDefaults(t *testing.T) {
	t.Parallel()
	res, err := Rename(64)
	if err != nil {
		t.Fatal(err)
	}
	checkTight(t, res, 64)
	if res.Rounds < 3 || res.Rounds > 15 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	if res.Algorithm != BallsIntoLeaves {
		t.Fatalf("algorithm = %v", res.Algorithm)
	}
}

func TestRenameAllAlgorithms(t *testing.T) {
	t.Parallel()
	for _, algo := range []Algorithm{BallsIntoLeaves, EarlyTerminating, RankDescent, DeterministicLevelDescent, NaiveRandom} {
		res, err := Rename(32, WithAlgorithm(algo), WithSeed(5))
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		checkTight(t, res, 32)
	}
}

func TestRenameAllEngines(t *testing.T) {
	t.Parallel()
	var rounds []int
	for _, eng := range []Engine{FastEngine, ReferenceEngine} {
		res, err := Rename(24, WithEngine(eng), WithSeed(9))
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		checkTight(t, res, 24)
		rounds = append(rounds, res.Rounds)
	}
	if rounds[0] != rounds[1] {
		t.Fatalf("engines disagree on rounds: %v", rounds)
	}
}

func TestRenameEnginesProduceSameNames(t *testing.T) {
	t.Parallel()
	idsIn := []uint64{90, 10, 50, 30, 70, 20, 40, 60}
	fast, err := Rename(8, WithIDs(idsIn), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Rename(8, WithIDs(idsIn), WithSeed(2), WithEngine(ReferenceEngine))
	if err != nil {
		t.Fatal(err)
	}
	for id, name := range fast.Names {
		if ref.Names[id] != name {
			t.Fatalf("id %d: fast %d, reference %d", id, name, ref.Names[id])
		}
	}
}

func TestRenameWithCrashes(t *testing.T) {
	t.Parallel()
	plans := []CrashPlan{
		RandomCrashes(10, 9, 3),
		SplitterCrash(1),
		RankShifterCrashes(),
		DeepTargetCrashes(2, 7),
		OnePerPhaseCrashes(),
	}
	for _, plan := range plans {
		res, err := Rename(32, WithCrashes(plan), WithSeed(4), WithInvariantChecks())
		if err != nil {
			t.Fatalf("%v: %v", plan, err)
		}
		checkTight(t, res, 32-len(res.Crashed))
		if plan.String() == "none" {
			t.Fatalf("plan %v stringifies as none", plan)
		}
	}
}

func TestRenameNaiveWithCrashesFallsBackToEngine(t *testing.T) {
	t.Parallel()
	res, err := Rename(24, WithAlgorithm(NaiveRandom), WithCrashes(RandomCrashes(6, 5, 1)))
	if err != nil {
		t.Fatal(err)
	}
	checkTight(t, res, 24-len(res.Crashed))
}

func TestRenameDeterministicReplay(t *testing.T) {
	t.Parallel()
	a, err := Rename(128, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Rename(128, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || len(a.Names) != len(b.Names) {
		t.Fatal("replay diverged")
	}
	for id, name := range a.Names {
		if b.Names[id] != name {
			t.Fatalf("id %x: %d vs %d", id, name, b.Names[id])
		}
	}
}

func TestRenamePhaseMetrics(t *testing.T) {
	t.Parallel()
	res, err := Rename(256, WithPhaseMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PhaseStats) != res.Phases {
		t.Fatalf("%d phase stats for %d phases", len(res.PhaseStats), res.Phases)
	}
	last := res.PhaseStats[len(res.PhaseStats)-1]
	if last.AtLeaves != 256 {
		t.Fatalf("final at-leaves = %d", last.AtLeaves)
	}
}

func TestRenameOptionValidation(t *testing.T) {
	t.Parallel()
	if _, err := Rename(0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := Rename(4, WithIDs([]uint64{1, 2, 3})); err == nil {
		t.Fatal("short id list accepted")
	}
	if _, err := Rename(2, WithIDs([]uint64{5, 5})); err == nil {
		t.Fatal("duplicate ids accepted")
	}
	if _, err := Rename(2, WithIDs([]uint64{0, 1})); err == nil {
		t.Fatal("zero id accepted")
	}
	if _, err := Rename(4, WithAlgorithm(Algorithm(99))); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	for _, algo := range []Algorithm{BallsIntoLeaves, NaiveRandom} {
		if _, err := Rename(8, WithAlgorithm(algo), WithEngine(Engine(99))); err == nil {
			t.Fatalf("%v on unknown engine accepted", algo)
		}
	}
	if _, err := Rename(4, WithPhaseMetrics(), WithEngine(ReferenceEngine)); err == nil {
		t.Fatal("metrics on reference engine accepted")
	}
}

func TestRenameWithTreeArity(t *testing.T) {
	t.Parallel()
	for _, k := range []int{2, 4, 16} {
		res, err := Rename(128, WithTreeArity(k), WithSeed(3), WithInvariantChecks())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		checkTight(t, res, 128)
	}
	if _, err := Rename(4, WithTreeArity(1)); err == nil {
		t.Fatal("arity 1 accepted")
	}
	if _, err := Rename(4, WithTreeArity(4), WithAlgorithm(NaiveRandom)); err == nil {
		t.Fatal("arity with naive accepted")
	}
}

func TestRenameEarlyTerminatingConstantRounds(t *testing.T) {
	t.Parallel()
	res, err := Rename(512, WithAlgorithm(EarlyTerminating))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("failure-free early-terminating rounds = %d, want 3", res.Rounds)
	}
}

func TestRenameLevelDescentLogRounds(t *testing.T) {
	t.Parallel()
	res, err := Rename(256, WithAlgorithm(DeterministicLevelDescent))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 17 { // 1 + 2*log2(256)
		t.Fatalf("level-descent rounds = %d, want 17", res.Rounds)
	}
}

func TestProtocolManualDrive(t *testing.T) {
	t.Parallel()
	// Drive three Protocol instances by hand, acting as the transport.
	const n = 3
	peerIDs := []uint64{100, 200, 300}
	procs := make([]*Protocol, n)
	for i, id := range peerIDs {
		p, err := NewProtocol(n, 42, id, BallsIntoLeaves)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	for round := 1; ; round++ {
		if round > 100 {
			t.Fatal("protocol did not terminate")
		}
		var msgs []Message
		for _, p := range procs {
			payload := p.Send(round)
			cp := make([]byte, len(payload))
			copy(cp, payload)
			msgs = append(msgs, Message{From: p.ID(), Payload: cp})
		}
		done := true
		for _, p := range procs {
			p.Deliver(round, msgs)
			if !p.Done() {
				done = false
			}
		}
		if done {
			break
		}
	}
	seen := make(map[int]bool)
	for _, p := range procs {
		name, ok := p.Decided()
		if !ok {
			t.Fatalf("process %d undecided", p.ID())
		}
		if name < 1 || name > n || seen[name] {
			t.Fatalf("bad name %d", name)
		}
		seen[name] = true
	}
}

func TestProtocolValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewProtocol(4, 1, 0, BallsIntoLeaves); err == nil {
		t.Fatal("zero id accepted")
	}
	if _, err := NewProtocol(4, 1, 7, NaiveRandom); err == nil {
		t.Fatal("naive accepted by NewProtocol")
	}
	if _, err := NewProtocol(0, 1, 7, BallsIntoLeaves); err == nil {
		t.Fatal("n=0 accepted")
	}
	p, err := NewProtocol(4, 1, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID() != 7 {
		t.Fatalf("id = %d", p.ID())
	}
}

func TestAlgorithmAndEngineStrings(t *testing.T) {
	t.Parallel()
	if BallsIntoLeaves.String() != "balls-into-leaves" || NaiveRandom.String() != "naive-random" {
		t.Fatal("algorithm strings")
	}
	if FastEngine.String() != "fast" || ReferenceEngine.String() != "reference" {
		t.Fatal("engine strings")
	}
	if Algorithm(99).String() == "" || Engine(99).String() == "" {
		t.Fatal("unknown strings empty")
	}
}
