package trace

import (
	"reflect"
	"strings"
	"testing"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/core"
	"ballsintoleaves/internal/ids"
	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/sim"
	"ballsintoleaves/internal/transport"
)

func runTraced(t *testing.T, n int, adv adversary.Strategy) *Log {
	t.Helper()
	balls, err := core.NewBalls(core.Config{N: n, Seed: 3}, ids.Random(n, 9))
	if err != nil {
		t.Fatal(err)
	}
	log := &Log{}
	eng, err := sim.New(sim.Config{Adversary: adv}, WrapAll(core.Processes(balls), log))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return log
}

func TestTraceRecordsFullRun(t *testing.T) {
	t.Parallel()
	const n = 8
	log := runTraced(t, n, nil)
	if log.Len() == 0 {
		t.Fatal("no events")
	}
	decisions := log.Decisions()
	if len(decisions) != n {
		t.Fatalf("%d decide events, want %d", len(decisions), n)
	}
	seen := map[int]bool{}
	for _, d := range decisions {
		if d.Name < 1 || d.Name > n || seen[d.Name] {
			t.Fatalf("bad decided name %d", d.Name)
		}
		seen[d.Name] = true
	}
	// Every process decides and halts exactly once.
	halts := 0
	for _, e := range log.Events() {
		if e.Kind == KindHalt {
			halts++
		}
	}
	if halts != n {
		t.Fatalf("%d halts, want %d", halts, n)
	}
}

func TestTraceRoundSummaries(t *testing.T) {
	t.Parallel()
	const n = 8
	log := runTraced(t, n, nil)
	sums := log.Summarize()
	if len(sums) < 3 {
		t.Fatalf("%d rounds summarized", len(sums))
	}
	if sums[0].Round != 1 || sums[0].Sends != n {
		t.Fatalf("round 1 summary: %+v", sums[0])
	}
	// Round 1 delivers n joins to each of n processes.
	if sums[0].Messages != n*n {
		t.Fatalf("round 1 messages = %d, want %d", sums[0].Messages, n*n)
	}
	var sb strings.Builder
	log.Render(&sb)
	if !strings.Contains(sb.String(), "round  sends") {
		t.Fatalf("render header missing:\n%s", sb.String())
	}
}

func TestTracePreservesIntrospection(t *testing.T) {
	t.Parallel()
	// A DeepTarget adversary needs Info() through the wrapper; with a
	// working wrapper it finds at-leaf victims and crashes them.
	const n = 16
	log := runTraced(t, n, &adversary.DeepTarget{PerRound: 1, Seed: 5})
	halts := 0
	for _, e := range log.Events() {
		if e.Kind == KindHalt {
			halts++
		}
	}
	if halts == n {
		t.Fatal("adversary crashed nobody: introspection lost through wrapper")
	}
}

// TestTraceOverLoopback records a run driven with one goroutine per process
// over transport.Loopback: the shared Log must take concurrent appends, and
// the traced processes must decide exactly as on the reference engine.
func TestTraceOverLoopback(t *testing.T) {
	t.Parallel()
	const n = 16
	labels := ids.Random(n, 11)
	mkProcs := func() []proto.Process {
		balls, err := core.NewBalls(core.Config{N: n, Seed: 4}, labels)
		if err != nil {
			t.Fatal(err)
		}
		return core.Processes(balls)
	}
	ref, err := sim.New(sim.Config{}, mkProcs())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	log := &Log{}
	traced := make(map[proto.ID]proto.Process, n)
	for _, p := range WrapAll(mkProcs(), log) {
		traced[p.ID()] = p
	}
	got, err := transport.RunAll(labels, transport.NetConfig{},
		func(id proto.ID) (transport.Process, error) { return traced[id], nil }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Decisions, want.Decisions) {
		t.Fatalf("loopback decisions = %+v, want %+v", got.Decisions, want.Decisions)
	}
	if len(log.Decisions()) != n {
		t.Fatalf("log recorded %d decisions, want %d", len(log.Decisions()), n)
	}
}

func TestKindStrings(t *testing.T) {
	t.Parallel()
	if KindSend.String() != "send" || KindHalt.String() != "halt" || Kind(9).String() == "" {
		t.Fatal("kind strings")
	}
}

// stubProc exercises the wrapper without the full protocol.
type stubProc struct {
	id      proto.ID
	decided bool
}

func (s *stubProc) ID() proto.ID    { return s.id }
func (s *stubProc) Send(int) []byte { return []byte{1, 2, 3} }
func (s *stubProc) Deliver(round int, _ []proto.Message) {
	if round >= 2 {
		s.decided = true
	}
}
func (s *stubProc) Decided() (int, bool) { return 7, s.decided }
func (s *stubProc) Done() bool           { return s.decided }

func TestWrapRecordsPayloadSizes(t *testing.T) {
	t.Parallel()
	log := &Log{}
	p := Wrap(&stubProc{id: 5}, log)
	p.Send(1)
	p.Deliver(1, []proto.Message{{From: 5, Payload: []byte{9, 9}}})
	events := log.Events()
	if len(events) != 2 || events[0].Bytes != 3 || events[1].Bytes != 2 || events[1].Msgs != 1 {
		t.Fatalf("events = %+v", events)
	}
	p.Send(2)
	p.Deliver(2, nil)
	decides := log.Decisions()
	if len(decides) != 1 || decides[0].Name != 7 || decides[0].Round != 2 {
		t.Fatalf("decisions = %+v", decides)
	}
}
