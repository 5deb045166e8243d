package repl

import (
	"testing"

	"ballsintoleaves/internal/namesvc/durable"
)

// metaScript is the state sequence the sweep drives through the store —
// the shapes persistMetaLocked actually writes: votes spent, terms
// adopted, freshness raised, the compaction floor advancing. Seq is
// assigned by the driver, as the node does.
var metaScript = []meta{
	{Term: 1, VotedFor: 0, LastRecTerm: 0, CompactFloor: 0},  // vote for self, term 1
	{Term: 1, VotedFor: 0, LastRecTerm: 1, CompactFloor: 0},  // freshness raised on first record
	{Term: 2, VotedFor: -1, LastRecTerm: 1, CompactFloor: 0}, // higher term observed
	{Term: 2, VotedFor: 1, LastRecTerm: 1, CompactFloor: 0},  // vote granted to node 1
	{Term: 2, VotedFor: 1, LastRecTerm: 2, CompactFloor: 0},  // freshness raised again
	{Term: 3, VotedFor: 0, LastRecTerm: 2, CompactFloor: 0},  // vote for self, term 3
	{Term: 3, VotedFor: 0, LastRecTerm: 3, CompactFloor: 7},  // leading: floor advances
	{Term: 3, VotedFor: 0, LastRecTerm: 3, CompactFloor: 19}, // floor advances again
}

// runMetaScript drives the script through a sinkMeta over the given sink
// until a save fails, returning the last acknowledged state.
func runMetaScript(store sinkMeta) (lastGood meta, inFlight meta, crashed bool) {
	lastGood = zeroMeta()
	for _, m := range metaScript {
		m.Seq = lastGood.Seq + 1
		if err := store.save(m); err != nil {
			return lastGood, m, true
		}
		lastGood = m
	}
	return lastGood, meta{}, false
}

// TestMetaCrashSweep kills the meta store at every possible write offset
// and checks what a restart recovers. The contract under any crash:
// recovery yields exactly the last acknowledged state or the single
// in-flight one — never a torn mixture, never an older state. That is
// the no-double-vote guarantee (Term/VotedFor cannot regress to a state
// where a spent vote looks unspent) and the no-resurrection guarantee
// (CompactFloor cannot regress behind a floor whose records were pruned,
// because pruning happens only after the save is acknowledged).
func TestMetaCrashSweep(t *testing.T) {
	// Measure the full run once; then crash at every unit 0..total.
	probe := durable.NewCrashBudget(-1)
	if _, _, crashed := runMetaScript(sinkMeta{sink: probe.Wrap(durable.NewMemSink()), base: metaBase}); crashed {
		t.Fatal("unlimited budget crashed")
	}
	total := probe.Units()
	if total == 0 {
		t.Fatal("script consumed no units; the sweep would be vacuous")
	}

	for k := int64(0); k <= total; k++ {
		budget := durable.NewCrashBudget(k)
		inner := durable.NewMemSink()
		lastGood, inFlight, crashed := runMetaScript(sinkMeta{sink: budget.Wrap(inner), base: metaBase})
		if crashed != (k < total) {
			t.Fatalf("budget %d: crashed = %v, want %v", k, crashed, k < total)
		}

		// Recovery reads the torn disk the dead machine left behind.
		got, err := sinkMeta{sink: inner, base: metaBase}.load()
		if err != nil {
			t.Fatalf("budget %d: recovery load: %v", k, err)
		}
		if got == lastGood {
			continue
		}
		if crashed && got == inFlight {
			// The dying write made it to disk whole before the sync was
			// acknowledged — "either old or new" allows new.
			continue
		}
		t.Fatalf("budget %d: recovered %+v, want %+v (acknowledged) or %+v (in flight)",
			k, got, lastGood, inFlight)
	}
}

// TestMetaCrashMonotonicity re-runs the sweep asserting the two derived
// invariants by themselves, so a regression names the broken property
// rather than a struct mismatch: the recovered sequence number and
// compaction floor never fall behind what was acknowledged.
func TestMetaCrashMonotonicity(t *testing.T) {
	probe := durable.NewCrashBudget(-1)
	runMetaScript(sinkMeta{sink: probe.Wrap(durable.NewMemSink()), base: metaBase})

	for k := int64(0); k <= probe.Units(); k++ {
		budget := durable.NewCrashBudget(k)
		inner := durable.NewMemSink()
		lastGood, _, _ := runMetaScript(sinkMeta{sink: budget.Wrap(inner), base: metaBase})
		got, err := sinkMeta{sink: inner, base: metaBase}.load()
		if err != nil {
			t.Fatalf("budget %d: recovery load: %v", k, err)
		}
		if got.Seq < lastGood.Seq {
			t.Fatalf("budget %d: recovered seq %d behind acknowledged %d — a spent vote could be respent",
				k, got.Seq, lastGood.Seq)
		}
		if got.CompactFloor < lastGood.CompactFloor {
			t.Fatalf("budget %d: recovered floor %d behind acknowledged %d — pruned records would resurrect",
				k, got.CompactFloor, lastGood.CompactFloor)
		}
	}
}
