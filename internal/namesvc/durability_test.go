package namesvc

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ballsintoleaves/internal/namesvc/durable"
	"ballsintoleaves/internal/wire"
)

// crashTraceConfig is the shared base config of the differential crash
// harness: small shards so the namespace churns, a capped journal so the
// window-compaction path is exercised, and a tiny snapshot cadence so
// crash points land inside checkpoint rotations, not just between appends.
var crashTraceConfig = Config{
	Shards: 2, ShardCap: 64, Seed: 7, MaxBatch: 8,
	Journal: true, JournalLimit: 16,
}

const crashTraceSnapEvery = 4

// runCrashTrace drives a deterministic acquire/epoch/release workload.
// Every outcome — grants, digests, counters — is a pure function of the
// service config, so a volatile reference run and any number of durable
// runs execute identically up to a crash. onStep is invoked after every
// primitive that could seal at most one WAL record per shard, including
// once for the initial state. Once budget (nil for a run that must not
// crash) has crashed, the first op refused ends the trace and its error
// is returned; any other error fails the test.
func runCrashTrace(t *testing.T, svc *Service, budget *durable.CrashBudget, onStep func()) error {
	t.Helper()
	stop := func(err error) error {
		t.Helper()
		if budget == nil || !budget.Crashed() {
			t.Fatal(err)
		}
		return err
	}
	rng := rand.New(rand.NewSource(0x5eed))
	var held []Grant
	client := uint64(0)
	// Deterministically refuse some grants, exercising the absorbed
	// (assign + release in one epoch) path through the WAL.
	absorb := func(g Grant) bool { return g.ReqID%5 != 0 }
	onStep()
	for round := 0; round < 40; round++ {
		for j := 1 + rng.Intn(6); j > 0; j-- {
			client++
			if _, err := svc.Acquire(client*2654435761+11, absorb); err != nil {
				return stop(err)
			}
		}
		onStep()
		for sh := 0; sh < svc.Shards(); sh++ {
			grants, err := svc.CloseEpoch(sh)
			if err != nil {
				return stop(err)
			}
			held = append(held, grants...)
			onStep()
		}
		if len(held) > 0 {
			for j := rng.Intn(len(held)+1) / 2; j > 0; j-- {
				idx := rng.Intn(len(held))
				g := held[idx]
				held[idx] = held[len(held)-1]
				held = held[:len(held)-1]
				if err := svc.Release(g.Client, g.Name); err != nil {
					return stop(err)
				}
				onStep()
			}
		}
	}
	return nil
}

// shardFingerprint is everything durability promises to preserve about one
// shard: the complete persisted state, down to each holder and the exact
// retained journal window.
type shardFingerprint struct {
	epoch    uint64
	nextID   uint64
	digest   uint64
	acquires uint64
	assigns  uint64
	releases uint64
	absorbed uint64
	free     int
	holder   []uint64
	window   []Entry
}

func captureShard(svc *Service, i int) shardFingerprint {
	sh := svc.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return shardFingerprint{
		epoch:    sh.led.epoch,
		nextID:   sh.nextID,
		digest:   sh.led.digest,
		acquires: sh.acquires,
		assigns:  sh.led.assigns,
		releases: sh.led.releases,
		absorbed: sh.absorbed,
		free:     sh.led.freeCount(),
		holder:   append([]uint64(nil), sh.led.holder...),
		window:   append([]Entry(nil), sh.led.journalWindow()...),
	}
}

func captureAll(svc *Service) []shardFingerprint {
	fp := make([]shardFingerprint, svc.Shards())
	for i := range fp {
		fp[i] = captureShard(svc, i)
	}
	return fp
}

// walSeqs returns each durable shard's WAL sequence number.
func walSeqs(svc *Service) []uint64 {
	v := make([]uint64, len(svc.shards))
	for i, sh := range svc.shards {
		sh.mu.Lock()
		if sh.dur != nil {
			v[i] = sh.dur.store.Seq()
		}
		sh.mu.Unlock()
	}
	return v
}

// openDurable builds a durable service over fresh MemSinks wrapped by one
// shared CrashBudget (a machine crash kills every shard at the same
// instant), returning the raw sinks for later recovery.
func openDurable(budget *durable.CrashBudget) (*Service, []*durable.MemSink, error) {
	cfg := crashTraceConfig
	sinks := make([]durable.Sink, cfg.Shards)
	raw := make([]*durable.MemSink, cfg.Shards)
	for i := range sinks {
		raw[i] = durable.NewMemSink()
		sinks[i] = budget.Wrap(raw[i])
	}
	cfg.Durable = &Durability{Sinks: sinks, Fsync: FsyncPerEpoch, SnapshotEvery: crashTraceSnapEvery}
	svc, err := Open(cfg)
	return svc, raw, err
}

// recoverFrom opens a recovery service directly over the raw sinks — the
// disk image the crashed machine left behind.
func recoverFrom(raw []*durable.MemSink) (*Service, error) {
	cfg := crashTraceConfig
	sinks := make([]durable.Sink, len(raw))
	for i := range raw {
		sinks[i] = raw[i]
	}
	cfg.Durable = &Durability{Sinks: sinks, Fsync: FsyncPerEpoch, SnapshotEvery: crashTraceSnapEvery}
	return Open(cfg)
}

// TestCrashPointRecoveryDifferential is the tentpole proof: a deterministic
// workload is killed at every byte/metadata offset (hundreds of points,
// swept by stride over the full unit count), recovered, and the recovered
// ledgers are required to be byte-identical — holders, digests, journal
// windows, request-ID counters, event counters — to a never-crashed
// reference at the exact step each shard's surviving WAL prefix seals.
func TestCrashPointRecoveryDifferential(t *testing.T) {
	t.Parallel()

	// Reference pass: volatile service, fingerprint after every step.
	ref, err := New(crashTraceConfig)
	if err != nil {
		t.Fatal(err)
	}
	var fps [][]shardFingerprint
	runCrashTrace(t, ref, nil, func() { fps = append(fps, captureAll(ref)) })

	// Unlimited durable pass: same trace, measuring the total crash units
	// and the WAL sequence vector at every step.
	unlimited := durable.NewCrashBudget(-1)
	svc, raw, err := openDurable(unlimited)
	if err != nil {
		t.Fatal(err)
	}
	var seqs [][]uint64
	runCrashTrace(t, svc, nil, func() { seqs = append(seqs, walSeqs(svc)) })
	if len(seqs) != len(fps) {
		t.Fatalf("reference saw %d steps, durable saw %d", len(fps), len(seqs))
	}
	if unlimited.Crashed() {
		t.Fatal("unlimited budget crashed")
	}
	if got, want := captureAll(svc), fps[len(fps)-1]; !reflect.DeepEqual(got, want) {
		t.Fatalf("durable live state diverged from reference:\n got %+v\nwant %+v", got, want)
	}
	if st := svc.Stats(); st.WALFailures != 0 || st.WALRecords == 0 || st.WALSnapshots == 0 {
		t.Fatalf("unlimited run stats: %+v", st)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Clean restart recovers the final state exactly.
	reopened, err := recoverFrom(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := captureAll(reopened), fps[len(fps)-1]; !reflect.DeepEqual(got, want) {
		t.Fatalf("clean restart diverged:\n got %+v\nwant %+v", got, want)
	}
	reopened.Close()

	// Crash sweep: at least 200 evenly-spread kill offsets across the whole
	// run, each recovered and matched shard by shard against the reference
	// at the first step whose WAL sequence equals the recovered one (later
	// steps with the same sequence differ only by volatile state the crash
	// legitimately lost).
	units := unlimited.Units()
	stride := units / 260
	if stride < 1 {
		stride = 1
	}
	points := 0
	for u := int64(0); u <= units; u += stride {
		points++
		budget := durable.NewCrashBudget(u)
		crashed, craw, err := openDurable(budget)
		if err != nil {
			if !errors.Is(err, durable.ErrCrashed) {
				t.Fatalf("unit %d: open: %v", u, err)
			}
		} else {
			runCrashTrace(t, crashed, budget, func() {})
			// No Close: the machine died. The open segment files simply
			// stop existing as handles; the sinks retain what was written.
		}

		rec, err := recoverFrom(craw)
		if err != nil {
			t.Fatalf("unit %d: recovery: %v", u, err)
		}
		v := walSeqs(rec)
		for i := range v {
			step := -1
			for k := range seqs {
				if seqs[k][i] == v[i] {
					step = k
					break
				}
			}
			if step < 0 {
				t.Fatalf("unit %d shard %d: recovered seq %d matches no reference step", u, i, v[i])
			}
			got, want := captureShard(rec, i), fps[step][i]
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("unit %d shard %d: recovered state diverges from reference step %d:\n got %+v\nwant %+v",
					u, i, step, got, want)
			}
		}
		// The recovered service must be live, not just inspectable: held
		// names reclaim, free names reject, and (sampled) fresh traffic
		// flows.
		for i, fp := range captureAll(rec) {
			for local, h := range fp.holder {
				if h != 0 {
					name := i*crashTraceConfig.ShardCap + local + 1
					if err := rec.Reclaim(h, name); err != nil {
						t.Fatalf("unit %d: reclaim held %d: %v", u, name, err)
					}
					if err := rec.Reclaim(h+1, name); err == nil {
						t.Fatalf("unit %d: reclaim of %d by wrong client succeeded", u, name)
					}
					break
				}
			}
		}
		if points%16 == 0 {
			if _, err := rec.Acquire(0xf8e54, nil); err != nil {
				t.Fatalf("unit %d: post-recovery acquire: %v", u, err)
			}
			if _, err := rec.CloseEpochs(); err != nil {
				t.Fatalf("unit %d: post-recovery epoch: %v", u, err)
			}
		}
		if err := rec.Close(); err != nil {
			t.Fatalf("unit %d: recovery close: %v", u, err)
		}
	}
	if points < 200 {
		t.Fatalf("swept only %d crash points (units %d); acceptance needs >= 200", points, units)
	}
	t.Logf("swept %d crash points over %d units, %d trace steps", points, units, len(seqs))
}

// TestDurableRestartChain pins recovery across several crash/restart
// generations on one data set: state survives N successive kill-and-reopen
// cycles with interleaved traffic, and the final ledger digest matches a
// volatile reference that saw the same total trace.
func TestDurableRestartChain(t *testing.T) {
	t.Parallel()
	cfg := crashTraceConfig
	raw := make([]*durable.MemSink, cfg.Shards)
	for i := range raw {
		raw[i] = durable.NewMemSink()
	}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	client := uint64(0)
	for gen := 0; gen < 5; gen++ {
		svc, err := recoverFrom(raw)
		if err != nil {
			t.Fatalf("generation %d: %v", gen, err)
		}
		for j := 0; j < 10; j++ {
			client++
			for _, s := range []*Service{svc, ref} {
				if _, err := s.Acquire(client, nil); err != nil {
					t.Fatal(err)
				}
				if _, err := s.CloseEpochs(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if svc.Digest() != ref.Digest() {
			t.Fatalf("generation %d: digest %016x, reference %016x", gen, svc.Digest(), ref.Digest())
		}
		if gen%2 == 0 {
			svc.Close() // clean shutdown: restart from a checkpoint
		} // odd generations: kill -9 — no Close, recovery replays the WAL
	}
}

// TestOpenAutoCapsJournal pins the durability footgun guard: enabling the
// journal without a cap on a durable service gets AutoJournalLimit instead
// of unbounded growth, while volatile services keep the configured zero.
func TestOpenAutoCapsJournal(t *testing.T) {
	t.Parallel()
	cfg := Config{Shards: 1, ShardCap: 8, Journal: true}
	cfg.Durable = &Durability{Sinks: []durable.Sink{durable.NewMemSink()}}
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if svc.cfg.JournalLimit != AutoJournalLimit {
		t.Fatalf("durable journal limit %d, want auto-cap %d", svc.cfg.JournalLimit, AutoJournalLimit)
	}
	vol, err := New(Config{Shards: 1, ShardCap: 8, Journal: true})
	if err != nil {
		t.Fatal(err)
	}
	if vol.cfg.JournalLimit != 0 {
		t.Fatalf("volatile journal limit %d, want 0", vol.cfg.JournalLimit)
	}
}

// TestOpenRejectsSinkMismatches pins the recovery guard rails: a sink
// count that does not match the shard count, an fsync mode that does not
// exist, and a sink mounted under the wrong shard, are construction errors
// — not scrambled namespaces.
func TestOpenRejectsSinkMismatches(t *testing.T) {
	t.Parallel()
	cfg := Config{Shards: 2, ShardCap: 8}
	cfg.Durable = &Durability{Sinks: []durable.Sink{durable.NewMemSink()}}
	if _, err := Open(cfg); err == nil {
		t.Fatal("one sink for two shards accepted")
	}
	cfg.Durable = &Durability{Sinks: []durable.Sink{durable.NewMemSink(), durable.NewMemSink()}, Fsync: FsyncGroup + 1}
	if _, err := Open(cfg); err == nil {
		t.Fatal("unknown fsync mode accepted")
	}

	// Write shard 1's data, then mount it under shard 0.
	sinks := []*durable.MemSink{durable.NewMemSink(), durable.NewMemSink()}
	cfg2 := Config{Shards: 2, ShardCap: 8, Seed: 3}
	cfg2.Durable = &Durability{Sinks: []durable.Sink{sinks[0], sinks[1]}}
	svc, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	for c := uint64(1); c < 40; c++ {
		if _, err := svc.Acquire(c, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.CloseEpochs(); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	cfg3 := Config{Shards: 2, ShardCap: 8, Seed: 3}
	cfg3.Durable = &Durability{Sinks: []durable.Sink{sinks[1], sinks[0]}}
	if _, err := Open(cfg3); err == nil {
		t.Fatal("cross-wired shard sinks accepted")
	}
}

// TestDurableFailsClosed pins the failure policy: when the WAL dies
// mid-run, the first op refused carries the storage error, and so does
// every later write on the failed shard. Refusals move nothing: the live
// state is the reference's at the refusal, and Close reports the failure.
func TestDurableFailsClosed(t *testing.T) {
	t.Parallel()
	ref, err := New(crashTraceConfig)
	if err != nil {
		t.Fatal(err)
	}
	var fps [][]shardFingerprint
	runCrashTrace(t, ref, nil, func() { fps = append(fps, captureAll(ref)) })

	// A budget large enough to survive Open but die mid-trace.
	budget := durable.NewCrashBudget(500)
	svc, _, err := openDurable(budget)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	refused := runCrashTrace(t, svc, budget, func() { steps++ })
	if !budget.Crashed() || refused == nil {
		t.Fatalf("budget crashed %v, trace refused %v; shrink the budget", budget.Crashed(), refused)
	}
	if !errors.Is(refused, durable.ErrCrashed) {
		t.Fatalf("first refused op: %v, want it to wrap %v", refused, durable.ErrCrashed)
	}
	// A refused op moved nothing — unless it was an epoch whose own record
	// failed: that one ran in memory first, one reference step on.
	got, want := captureAll(svc), fps[steps-1]
	if !reflect.DeepEqual(got, want) {
		want = fps[steps]
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("state at the refusal diverged from reference steps %d and %d:\n got %+v\nwant %+v",
			steps-1, steps, got, want)
	}
	failed := -1
	for i, sh := range svc.shards {
		if sh.refusal() != nil {
			failed = i
		}
	}
	if failed < 0 {
		t.Fatal("no shard holds the failure")
	}
	if st := svc.Stats(); st.WALFailures == 0 {
		t.Fatalf("failed run reports no WAL failures: %+v", st)
	}
	client := clientOnShard(svc, failed, 1)
	name := failed*crashTraceConfig.ShardCap + 1
	writes := map[string]func() error{
		"Acquire": func() error { _, err := svc.Acquire(client, nil); return err },
		"AcquireBatch": func() error {
			_, err := svc.AcquireBatch(failed, []AcquireOp{{Client: client}}, nil)
			return err
		},
		"Release": func() error { return svc.Release(client, name) },
		"ReleaseBatch": func() error {
			_, err := svc.ReleaseBatch(failed, []ReleaseOp{{Client: client, Name: name}}, nil)
			return err
		},
		"ApplyReplicated": func() error {
			var w wire.Writer
			appendWALRecord(&w, failed, walSeal{}, []Entry{{Op: OpAssign, Client: client, Name: 1}})
			_, err := svc.ApplyReplicated(failed, w.Bytes())
			return err
		},
		"RestoreReplicaShard": func() error {
			return svc.RestoreReplicaShard(failed, svc.ShardSnapshotPayload(failed))
		},
	}
	for op, write := range writes {
		if err := write(); !errors.Is(err, durable.ErrCrashed) {
			t.Errorf("%s on failed shard %d: %v, want a refusal wrapping %v", op, failed, err, durable.ErrCrashed)
		}
	}
	// Nothing is queued on the failed shard, so an epoch has nothing to
	// write (TestFlushRacingCheckpoint refuses one that has).
	if grants, err := svc.CloseEpoch(failed); len(grants) > 0 || err != nil {
		t.Errorf("empty epoch on failed shard %d: %d grants, %v", failed, len(grants), err)
	}
	if got := captureAll(svc); !reflect.DeepEqual(got, want) {
		t.Fatalf("refused writes moved the state:\n got %+v\nwant %+v", got, want)
	}
	if err := svc.Close(); !errors.Is(err, durable.ErrCrashed) {
		t.Fatalf("Close on a failed service: %v, want the durability failure", err)
	}
}
