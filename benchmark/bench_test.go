package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/namesvc/durable"
)

// fixedTrace drives one deterministic acquire / epoch / commit / release
// sequence through a durable two-shard Service and returns its digest. With
// a tracer, every seam the harness decorates is decorated and recording.
func fixedTrace(t *testing.T, tr *tracer) uint64 {
	t.Helper()
	var runner namesvc.Runner = namesvc.CohortRunner{}
	sinks := []durable.Sink{durable.NewMemSink(), durable.NewMemSink()}
	if tr != nil {
		runner = tr.runner(runner)
		for i := range sinks {
			disk := &steadySink{Sink: sinks[i], floor: time.Microsecond}
			traced := tr.sink(disk, i)
			traced.observeDisk(disk)
			sinks[i] = traced
		}
	}
	svc, err := namesvc.Open(namesvc.Config{
		Shards:   serviceShards,
		ShardCap: 64,
		Seed:     serviceSeed,
		Runner:   runner,
		Durable:  &namesvc.Durability{Sinks: sinks, Fsync: namesvc.FsyncGroup, SnapshotEvery: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	gate := namesvc.GroupGate(svc)
	if tr != nil {
		gate = tr.commitGate(gate)
		tr.on.Store(true)
	}
	for round := 0; round < 6; round++ {
		for c := 1; c <= 20; c++ {
			if _, err := svc.Acquire(uint64(100*round+c), nil); err != nil {
				t.Fatal(err)
			}
		}
		for shard := 0; shard < serviceShards; shard++ {
			grants, err := svc.CloseEpoch(shard)
			if err != nil {
				t.Fatal(err)
			}
			if err := gate.WaitCommitted(shard); err != nil {
				t.Fatal(err)
			}
			for i, g := range grants {
				if i%2 == 0 {
					if err := svc.Release(g.Client, g.Name); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	digest := svc.Digest()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	return digest
}

// TestDecoratorsTransparent: the same trace with and without the decorators
// must leave the same ledger, and the decorators must have seen it.
func TestDecoratorsTransparent(t *testing.T) {
	plain := fixedTrace(t, nil)
	tr := newTracer(time.Now(), serviceShards)
	if traced := fixedTrace(t, tr); traced != plain {
		t.Fatalf("digest %#x with decorators, %#x without", traced, plain)
	}
	if len(tr.runners) != serviceShards {
		t.Fatalf("the Service forked %d runners, want one per shard (%d)", len(tr.runners), serviceShards)
	}
	for _, r := range tr.runners {
		if _, unforked := r.inner.(namesvc.CohortRunner); unforked {
			t.Errorf("shard %d runs the unforked CohortRunner: the per-shard cohort cache is lost", r.shard)
		}
		if r.epochs == 0 || r.grants == 0 {
			t.Errorf("shard %d runner saw %d epochs, %d grants", r.shard, r.epochs, r.grants)
		}
	}
	for _, s := range tr.sinks {
		if s.appends == 0 || s.walSyncs == 0 || s.checkpoints == 0 {
			t.Errorf("shard %d sink saw %d appends, %d segment syncs, %d checkpoints: Files are not decorated",
				s.shard, s.appends, s.walSyncs, s.checkpoints)
		}
		if real := int64(s.realSyncHist.Count()); real != s.syncs {
			t.Errorf("shard %d: the modelled disk reported %d flushes, the decorator timed %d", s.shard, real, s.syncs)
		}
	}
	for i := range tr.gate.shards {
		if tr.gate.shards[i].waits == 0 {
			t.Errorf("gate saw no WaitCommitted on shard %d", i)
		}
	}
	syncs := tr.spans(spanSinkSync)
	nested := 0
	for _, s := range syncs {
		if s.parent != 0 {
			nested++
		}
	}
	if nested == 0 {
		t.Errorf("none of %d sink.sync spans names an enclosing commit.wait", len(syncs))
	}
}

// fakeReplGate has every optional extension repl.Node has.
type fakeReplGate struct{}

func (fakeReplGate) AdmitWrites() (bool, string)      { return true, "" }
func (fakeReplGate) WaitCommitted(int) error          { return nil }
func (fakeReplGate) WireRole() (namesvc.Role, string) { return namesvc.RoleLeader, "leader:1" }
func (fakeReplGate) ReadLeaseValid() bool             { return false }
func (fakeReplGate) WireReplStats() (uint64, namesvc.Role, string, uint64) {
	return 7, namesvc.RoleLeader, "won-election", 3
}

// TestGateDecoratorKeepsExtensions: the Server finds WireRole,
// ReadLeaseValid and WireReplStats by type assertion, so the decorated gate
// must have them exactly when the gate it wraps does.
func TestGateDecoratorKeepsExtensions(t *testing.T) {
	tr := newTracer(time.Now(), serviceShards)
	rg, ok := tr.commitGate(fakeReplGate{}).(replGate)
	if !ok {
		t.Fatal("decorating a replication gate lost its extensions")
	}
	if role, leader := rg.WireRole(); role != namesvc.RoleLeader || leader != "leader:1" {
		t.Errorf("WireRole = %v, %q", role, leader)
	}
	if rg.ReadLeaseValid() {
		t.Error("ReadLeaseValid = true, the wrapped gate says false")
	}
	if term, _, reason, floor := rg.WireReplStats(); term != 7 || reason != "won-election" || floor != 3 {
		t.Errorf("WireReplStats = %d, %q, %d", term, reason, floor)
	}
	svc, err := namesvc.Open(namesvc.Config{ShardCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.commitGate(namesvc.GroupGate(svc)).(replGate); ok {
		t.Error("decorating GroupGate invented replication extensions")
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesHarness: BENCHMARK.json and the harness declare
// the same workloads and the same metrics.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json names %d %s metrics, the harness has %d", len(got), kind, len(want))
			return
		}
		for i, d := range want {
			if got[i] != (jsonMetric{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, got[i], d)
			}
		}
	}
	check("end-to-end", b.EndToEnd, endToEndDefs)
	check("per-layer", b.PerLayer, perLayerDefs)
}

// smokeConfig shrinks a run to 300ms over a 2 × 512 namespace.
func smokeConfig(t *testing.T) runConfig {
	return runConfig{
		seed:     1,
		shardCap: 512,
		warmup:   50 * time.Millisecond,
		window:   100 * time.Millisecond,
		windows:  3,
		setups:   1,
		// Elections are started by hand; a test binary starved by its
		// neighbours must not start another.
		electionTimeout: 10 * time.Second,
		probeFor:        5 * time.Millisecond,
		flushFloor:      200 * time.Microsecond,
		outDir:          t.TempDir(),
	}
}

// TestSmoke runs every workload, untraced and traced, and checks that the
// outputs are correct and that every metric BENCHMARK.json names comes out
// with its unit and a finite value. It asserts nothing about speed.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig(t)
			check := func(r *result, got map[string]value, want []jsonMetric) {
				for _, p := range r.Problems {
					t.Errorf("correctness: %s", p)
				}
				// An open loop sheds when the box cannot keep its schedule,
				// which is speed; a closed loop has no excuse.
				if w.pacedRate == 0 && r.Failed != 0 {
					t.Errorf("%d of %d acquires failed", r.Failed, r.Attempted)
				}
				if r.Attempted < 1 {
					t.Errorf("attempted %d acquires", r.Attempted)
				}
				if len(got) != len(want) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(got), len(want))
				}
				for _, m := range want {
					v, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("%s is not emitted", m.Name)
					case v.Unit != m.Unit:
						t.Errorf("%s has unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
						t.Errorf("%s = %v", m.Name, v.Value)
					}
				}
			}
			e, err := runEndToEnd(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			check(e, e.EndToEnd, b.EndToEnd)
			p, err := runPerLayer(w, cfg, cfg.windows)
			if err != nil {
				t.Fatal(err)
			}
			check(p, p.PerLayer, b.PerLayer)
		})
	}
}
