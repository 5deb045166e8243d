package namesvc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	bil "ballsintoleaves"
	"ballsintoleaves/internal/core"
	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/transport"
)

// traceOp is one step of a recorded arrival trace, replayable against any
// Service instance.
type traceOp struct {
	kind   byte // 'a'cquire, 'r'elease, 'c'ancel, 'e'poch(shard)
	client uint64
	name   int
	shard  int
}

// apply replays a trace. Acquire request IDs are per-shard sequences
// assigned in arrival order, so two instances fed the same trace issue the
// same IDs. reqs maps the trace's acquire order to the returned IDs for
// cancels.
func applyTrace(t *testing.T, svc *Service, trace []traceOp) {
	t.Helper()
	reqByClient := map[uint64]uint64{}
	for i, op := range trace {
		switch op.kind {
		case 'a':
			id, err := svc.Acquire(op.client, nil)
			if err != nil {
				t.Fatalf("trace[%d] acquire: %v", i, err)
			}
			reqByClient[op.client] = id
		case 'r':
			if err := svc.Release(op.client, op.name); err != nil {
				t.Fatalf("trace[%d] release: %v", i, err)
			}
		case 'c':
			svc.Cancel(op.client, reqByClient[op.client])
		case 'e':
			if _, err := svc.CloseEpoch(op.shard); err != nil {
				t.Fatalf("trace[%d] epoch: %v", i, err)
			}
		}
	}
}

// fixedTrace is a deterministic mixed workload over 2 shards: arrivals,
// epochs, releases derived from grants, a cancel, more epochs.
func fixedTrace(t *testing.T, svc *Service) {
	t.Helper()
	grants := map[uint64]Grant{} // client -> live grant
	closeAll := func() {
		gs, err := svc.CloseEpochs()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range gs {
			grants[g.Client] = g
		}
	}
	for client := uint64(1); client <= 10; client++ {
		if _, err := svc.Acquire(client, nil); err != nil {
			t.Fatal(err)
		}
	}
	closeAll()
	// Release the even clients, cancel a queued request, re-acquire.
	for client := uint64(2); client <= 10; client += 2 {
		g := grants[client]
		if err := svc.Release(g.Client, g.Name); err != nil {
			t.Fatal(err)
		}
		delete(grants, client)
	}
	id, err := svc.Acquire(77, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Cancel(77, id)
	for client := uint64(20); client <= 24; client++ {
		if _, err := svc.Acquire(client, nil); err != nil {
			t.Fatal(err)
		}
	}
	closeAll()
	closeAll()
}

// TestReplayIdenticalLedgers pins the service's determinism guarantee: two
// instances with the same (seed, arrival trace, shards) produce identical
// per-shard assignment journals and digests.
func TestReplayIdenticalLedgers(t *testing.T) {
	t.Parallel()
	// RandomPaths makes every epoch genuinely seed-dependent (the default
	// hybrid runner decides failure-free batches with the deterministic
	// rank rule, where the seed never enters).
	cfg := Config{Shards: 2, ShardCap: 16, Seed: 99, Journal: true,
		Runner: CohortRunner{Strategy: core.RandomPaths}}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fixedTrace(t, a)
	fixedTrace(t, b)
	for s := 0; s < 2; s++ {
		ja, jb := a.ShardJournal(s), b.ShardJournal(s)
		if !reflect.DeepEqual(ja, jb) {
			t.Fatalf("shard %d journals differ:\n%v\nvs\n%v", s, ja, jb)
		}
		if len(ja) == 0 {
			t.Fatalf("shard %d journal empty — trace never touched it", s)
		}
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digests differ: %x vs %x", a.Digest(), b.Digest())
	}
	// A different seed must produce a different assignment history.
	cfg.Seed = 100
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fixedTrace(t, c)
	if c.Digest() == a.Digest() {
		t.Fatal("different seeds produced identical ledgers")
	}
}

// TransportRunner runs epochs as true distributed executions: one goroutine
// per batch member drives the public ballsintoleaves.Protocol over an
// internal/transport loopback hub, exactly the state machine cmd/blserve
// runs over TCP. It is the equivalence witness for CohortRunner — orders of
// magnitude slower, and linked into no binary.
type TransportRunner struct{}

// Name implements Runner.
func (TransportRunner) Name() string { return "transport" }

// Assign implements Runner, with bil.EarlyTerminating: the O(1)-failure-free
// variant matching CohortRunner's default.
func (TransportRunner) Assign(seed uint64, labels []proto.ID, ranks []int) error {
	n := len(labels)
	sum, err := transport.RunAll(labels, transport.NetConfig{}, func(id proto.ID) (transport.Process, error) {
		p, err := bil.NewProtocol(n, seed, uint64(id), bil.EarlyTerminating)
		if err != nil {
			return nil, err
		}
		return protocolProcess{p}, nil
	}, 0)
	if err != nil {
		return err
	}
	return ranksByLabel(labels, sum.Decisions, ranks)
}

// protocolProcess adapts the public Protocol to transport.Process.
type protocolProcess struct{ p *bil.Protocol }

func (a protocolProcess) Send(round int) []byte { return a.p.Send(round) }
func (a protocolProcess) Deliver(round int, msgs []proto.Message) {
	conv := make([]bil.Message, len(msgs))
	for i, m := range msgs {
		conv[i] = bil.Message{From: uint64(m.From), Payload: m.Payload}
	}
	a.p.Deliver(round, conv)
}
func (a protocolProcess) Decided() (int, bool) { return a.p.Decided() }
func (a protocolProcess) Done() bool           { return a.p.Done() }

// ranksByLabel aligns decisions (ascending by ID) with the batch's label
// order, filling ranks. Epoch batches are failure-free renaming instances,
// so every label must have decided; anything else is a runner bug surfaced
// as an error.
func ranksByLabel(labels []proto.ID, decisions []proto.Decision, ranks []int) error {
	if len(decisions) != len(labels) {
		return fmt.Errorf("namesvc: %d decisions for a batch of %d", len(decisions), len(labels))
	}
	byID := make(map[proto.ID]int, len(decisions))
	for _, d := range decisions {
		byID[d.ID] = d.Name
	}
	for i, l := range labels {
		name, ok := byID[l]
		if !ok {
			return fmt.Errorf("namesvc: label %v missing from decisions", l)
		}
		ranks[i] = name
	}
	return nil
}

// TestCohortAndTransportRunnersAgree extends the repository's equivalence
// chain (sim ≡ runtime ≡ cohort ≡ loopback ≡ TCP) to the service layer: the
// in-process CohortRunner and the distributed TransportRunner (the public
// Protocol over a loopback transport, goroutine per batch member) must
// produce identical assignment ledgers for identical traffic.
func TestCohortAndTransportRunnersAgree(t *testing.T) {
	t.Parallel()
	base := Config{Shards: 2, ShardCap: 16, Seed: 7, Journal: true}
	fast := base
	fast.Runner = CohortRunner{}
	slow := base
	slow.Runner = TransportRunner{}
	a, err := New(fast)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(slow)
	if err != nil {
		t.Fatal(err)
	}
	fixedTrace(t, a)
	fixedTrace(t, b)
	if a.Digest() != b.Digest() {
		t.Fatalf("cohort and transport runners diverged: %x vs %x", a.Digest(), b.Digest())
	}
	for s := 0; s < 2; s++ {
		if !reflect.DeepEqual(a.ShardJournal(s), b.ShardJournal(s)) {
			t.Fatalf("shard %d journals differ between runners", s)
		}
	}
}

// TestRandomizedInterleavingInvariants is the property test: randomized
// acquire/release/cancel/epoch interleavings, checked against a model for
// (1) grant uniqueness among live names, (2) reuse only after release, and
// (3) ledger replay equality for the recorded trace on a fresh instance.
func TestRandomizedInterleavingInvariants(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		rnd := rand.New(rand.NewSource(seed))
		cfg := Config{Shards: 3, ShardCap: 8, Seed: uint64(seed), Journal: true}
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}

		var trace []traceOp
		nextClient := uint64(0)
		live := map[int]Grant{}       // name -> grant
		everHeld := map[int]bool{}    // granted at least once
		canReuse := map[int]bool{}    // released since last grant
		queued := map[uint64]uint64{} // client -> reqID, not yet granted or cancelled

		grantsOf := func(shard int) {
			gs, err := svc.CloseEpoch(shard)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, g := range gs {
				if _, dup := live[g.Name]; dup {
					t.Fatalf("seed %d: name %d granted while live", seed, g.Name)
				}
				if everHeld[g.Name] && !canReuse[g.Name] {
					t.Fatalf("seed %d: name %d reused without release", seed, g.Name)
				}
				if sh, _ := svc.ShardOfName(g.Name); sh != shard {
					t.Fatalf("seed %d: shard %d granted foreign name %d", seed, shard, g.Name)
				}
				live[g.Name] = g
				everHeld[g.Name] = true
				delete(canReuse, g.Name)
				delete(queued, g.Client)
			}
		}

		for step := 0; step < 400; step++ {
			switch r := rnd.Intn(10); {
			case r < 4: // acquire
				nextClient++
				client := nextClient
				id, err := svc.Acquire(client, nil)
				if err != nil {
					t.Fatal(err)
				}
				queued[client] = id
				trace = append(trace, traceOp{kind: 'a', client: client})
			case r < 7: // release a random live name
				for name, g := range live {
					if err := svc.Release(g.Client, name); err != nil {
						t.Fatalf("seed %d: release: %v", seed, err)
					}
					delete(live, name)
					canReuse[name] = true
					trace = append(trace, traceOp{kind: 'r', client: g.Client, name: name})
					break
				}
			case r < 8: // cancel a random queued request
				for client := range queued {
					svc.Cancel(client, queued[client])
					delete(queued, client)
					trace = append(trace, traceOp{kind: 'c', client: client})
					break
				}
			default: // close an epoch on a random shard
				shard := rnd.Intn(cfg.Shards)
				trace = append(trace, traceOp{kind: 'e', shard: shard})
				grantsOf(shard)
			}
		}
		// Drain: release everything, close every shard until quiet.
		for name, g := range live {
			if err := svc.Release(g.Client, name); err != nil {
				t.Fatal(err)
			}
			delete(live, name)
			canReuse[name] = true
			trace = append(trace, traceOp{kind: 'r', client: g.Client, name: name})
		}
		for s := 0; s < cfg.Shards; s++ {
			trace = append(trace, traceOp{kind: 'e', shard: s})
			grantsOf(s)
		}

		// Replay invariant: the recorded trace on a fresh instance yields
		// the identical ledger. (Releases in the recorded trace name the
		// exact grants, which determinism makes valid on the replica.)
		replica, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		applyTrace(t, replica, trace)
		if replica.Digest() != svc.Digest() {
			t.Fatalf("seed %d: replay digest %x != original %x", seed, replica.Digest(), svc.Digest())
		}
	}
}
