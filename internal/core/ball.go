package core

import (
	"fmt"
	"sort"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/rng"
	"ballsintoleaves/internal/tree"
	"ballsintoleaves/internal/wire"
)

// Ball is the faithful per-process implementation of Algorithm 1. Each Ball
// keeps a full local view of the virtual tree — exactly the data structure
// of the paper — and is driven as a proto.Process by internal/sim or, one
// goroutine per ball, by internal/transport's Run:
//
//	round 1:      broadcast ⟨b_i⟩, insert every received ball at the root;
//	round 2φ:     broadcast the candidate path, then simulate all received
//	              paths in <R priority order (phase φ, communication round 1);
//	round 2φ+1:   broadcast the current position, then synchronize the view
//	              and remove silent balls (phase φ, communication round 2).
//
// A Ball decides once it occupies a leaf (the decided name is the leaf's
// left-to-right rank, 1-based) and halts when every ball in its view is at
// a leaf (line 29).
type Ball struct {
	cfg  Config
	id   proto.ID
	topo *tree.Topology
	src  *rng.Source

	view    *View
	selfIdx int

	// Scratch buffers reused across rounds.
	w       wire.Writer
	has     []bool
	paths   []Path
	pos     []tree.Node
	joinSet []proto.ID

	myPath       Path
	decided      bool
	name         int
	done         bool
	decodeErrors int
}

// Compile-time check that Ball satisfies the engine contract (the optional
// sim.Introspector one is asserted in ball_test.go, so that the service
// daemons, which run only the Cohort, do not link the reference engine).
var _ proto.Process = (*Ball)(nil)

// NewBall constructs one process. All balls of a system must share the same
// Config (normalized identically) and topology; use NewBalls for the common
// case.
func NewBall(cfg Config, topo *tree.Topology, id proto.ID) (*Ball, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	if topo.N() != cfg.N {
		return nil, fmt.Errorf("core: topology has %d leaves, config wants %d", topo.N(), cfg.N)
	}
	return &Ball{
		cfg:  cfg,
		id:   id,
		topo: topo,
		src:  rng.Derive(cfg.Seed, uint64(id)),
	}, nil
}

// NewBalls constructs the full system: one Ball per label over a shared
// topology. Labels must be distinct; order does not matter.
func NewBalls(cfg Config, labels []proto.ID) ([]*Ball, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.normalized()
	if len(labels) != cfg.N {
		return nil, fmt.Errorf("core: %d labels for N=%d", len(labels), cfg.N)
	}
	seen := make(map[proto.ID]bool, len(labels))
	for _, id := range labels {
		if seen[id] {
			return nil, fmt.Errorf("core: duplicate label %v", id)
		}
		seen[id] = true
	}
	topo := tree.Shared(cfg.N, cfg.Arity)
	balls := make([]*Ball, len(labels))
	for i, id := range labels {
		b, err := NewBall(cfg, topo, id)
		if err != nil {
			return nil, err
		}
		balls[i] = b
	}
	return balls, nil
}

// Processes converts a Ball slice to the engine's interface type.
func Processes(balls []*Ball) []proto.Process {
	procs := make([]proto.Process, len(balls))
	for i, b := range balls {
		procs[i] = b
	}
	return procs
}

// ID implements proto.Process.
func (b *Ball) ID() proto.ID { return b.id }

// Decided implements proto.Process.
func (b *Ball) Decided() (int, bool) { return b.name, b.decided }

// Done implements proto.Process.
func (b *Ball) Done() bool { return b.done }

// DecodeErrors reports how many malformed payloads the ball tolerated
// (each is treated as the sender having crashed).
func (b *Ball) DecodeErrors() int { return b.decodeErrors }

// View exposes the ball's local view for invariant checks in tests.
func (b *Ball) View() *View { return b.view }

// Info implements sim.Introspector for strong adaptive adversaries.
func (b *Ball) Info() adversary.BallInfo {
	info := adversary.BallInfo{Label: b.id}
	if b.view != nil {
		node := b.view.Node(b.selfIdx)
		info.Depth = b.topo.Depth(node)
		info.AtLeaf = b.topo.IsLeaf(node)
	}
	return info
}

// Send implements proto.Process.
func (b *Ball) Send(round int) []byte {
	b.w.Reset()
	switch {
	case round == 1:
		appendJoin(&b.w)
	case b.cfg.NoSyncRound || round%2 == 0:
		phase := round / 2
		if b.cfg.NoSyncRound {
			phase = round - 1
		}
		b.myPath = choosePath(b.cfg, b.view, b.selfIdx, b.src, phase)
		appendPath(&b.w, b.myPath)
	default:
		appendPos(&b.w, b.view.Node(b.selfIdx))
	}
	return b.w.Bytes()
}

// Deliver implements proto.Process.
func (b *Ball) Deliver(round int, msgs []proto.Message) {
	switch {
	case round == 1:
		b.initView(msgs)
	case b.cfg.NoSyncRound:
		b.deliverPaths(msgs)
		b.maybeDecideAndHalt()
	case round%2 == 0:
		b.deliverPaths(msgs)
	default:
		b.deliverPositions(round, msgs)
	}
}

// maybeDecideAndHalt applies the decision and termination checks against
// the current view (shared by the position round and the no-sync ablation).
func (b *Ball) maybeDecideAndHalt() {
	self := b.view.Node(b.selfIdx)
	if !b.decided && b.topo.IsLeaf(self) {
		b.decided = true
		b.name = b.topo.LeafRank(self) + 1
	}
	if b.view.AllAtLeaves() {
		b.done = true
	}
}

// initView processes the join round (line 1): every heard ball is inserted
// at the root of the local tree.
func (b *Ball) initView(msgs []proto.Message) {
	b.joinSet = b.joinSet[:0]
	selfHeard := false
	for _, m := range msgs {
		if err := decodeJoin(m.Payload); err != nil {
			b.decodeErrors++
			continue
		}
		b.joinSet = append(b.joinSet, m.From)
		if m.From == b.id {
			selfHeard = true
		}
	}
	if !selfHeard {
		// Engines always self-deliver, but a view without self would be
		// unable to act; insert defensively.
		b.joinSet = append(b.joinSet, b.id)
	}
	labels := make([]proto.ID, len(b.joinSet))
	copy(labels, b.joinSet)
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	b.view = NewView(b.topo, labels)
	idx, ok := b.view.IndexOf(b.id)
	if !ok {
		panic("core: self missing from freshly built view")
	}
	b.selfIdx = idx
	n := b.view.Universe()
	b.has = make([]bool, n)
	b.paths = make([]Path, n)
	b.pos = make([]tree.Node, n)
}

// deliverPaths processes round 1 of a phase: collect candidate paths and
// run the priority move pass.
func (b *Ball) deliverPaths(msgs []proto.Message) {
	for i := range b.has {
		b.has[i] = false
	}
	for _, m := range msgs {
		idx, ok := b.view.IndexOf(m.From)
		if !ok || !b.view.Present(idx) {
			// Unknown or already-removed sender: a correct process is
			// known to everyone after the init round, so this can only be
			// stale traffic; ignore it.
			continue
		}
		p, err := decodePath(m.Payload, b.topo)
		if err != nil {
			b.decodeErrors++
			continue
		}
		b.has[idx] = true
		b.paths[idx] = p
	}
	applyPaths(b.cfg, b.view, b.has, b.paths)
	if b.cfg.CheckInvariants {
		if err := b.view.CheckConsistency(); err != nil {
			panic(fmt.Sprintf("core: ball %v after path round: %v", b.id, err))
		}
		// After the path pass every silent (crashed) ball has been removed
		// and every move respected capacity at its turn, so the full
		// capacity invariant must hold — unless the LabelPriority ablation
		// deliberately broke the reservation argument.
		if !b.cfg.LabelPriority {
			if err := b.view.Occupancy().CheckCapacityInvariant(); err != nil {
				panic(fmt.Sprintf("core: ball %v after path round: %v", b.id, err))
			}
		}
	}
}

// deliverPositions processes round 2 of a phase: synchronize announced
// positions, remove silent balls, then decide and/or halt.
func (b *Ball) deliverPositions(round int, msgs []proto.Message) {
	for i := range b.has {
		b.has[i] = false
	}
	for _, m := range msgs {
		idx, ok := b.view.IndexOf(m.From)
		if !ok || !b.view.Present(idx) {
			continue
		}
		node, err := decodePos(m.Payload, b.topo)
		if err != nil {
			b.decodeErrors++
			continue
		}
		b.has[idx] = true
		b.pos[idx] = node
	}
	applyPositions(b.cfg, b.view, b.has, b.pos)
	if b.cfg.CheckInvariants {
		if err := b.view.CheckConsistency(); err != nil {
			panic(fmt.Sprintf("core: ball %v after position round: %v", b.id, err))
		}
	}
	b.maybeDecideAndHalt()
}
