package core

import (
	"fmt"
	"slices"
	"sort"

	"ballsintoleaves/internal/proto"
	"ballsintoleaves/internal/tree"
)

// View is one local view of the virtual tree: the set of balls a process
// believes are participating, each with a position. Balls are addressed by
// dense index into the label table (ascending label order), which every
// view derived from the same membership shares.
//
// A View owns its occupancy; the topology and label table are shared and
// immutable.
type View struct {
	topo    *tree.Topology
	occ     *tree.Occupancy
	labels  []proto.ID // ascending; shared, immutable
	node    []tree.Node
	present []bool
	count   int

	// Scratch reused by orderedPresent; lazily allocated, never copied by
	// Clone/CopyFrom (it carries no view state).
	orderBuf []int32
	depthCnt []int32
	depthOff []int32
}

// NewView builds a view with all the given balls at the root, the initial
// configuration of Algorithm 1 (Figure 1). The labels slice must be sorted
// ascending and is retained (not copied).
func NewView(topo *tree.Topology, labels []proto.ID) *View {
	v := &View{}
	v.rebind(topo, labels)
	v.ResetAllAtRoot()
	return v
}

// rebind points the view at a topology and a label table of any size,
// growing its per-ball and per-node arrays only when they are too small.
// Positions are unspecified until ResetAllAtRoot or CopyFrom.
func (v *View) rebind(topo *tree.Topology, labels []proto.ID) {
	v.topo, v.labels = topo, labels
	if v.occ == nil {
		v.occ = &tree.Occupancy{}
	}
	v.occ.Rebind(topo)
	v.node = resized(v.node, len(labels))
	v.present = resized(v.present, len(labels))
}

// resized returns s with length n, reallocating only when its capacity is
// too small; the contents are unspecified.
func resized[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// ResetAllAtRoot returns the view to the initial configuration of
// Algorithm 1 — every ball present and parked at the root — without
// allocating, so a view (and the Cohort owning it) can be reused across
// runs. The label table is shared and mutable by the owner (Cohort.Reset
// rewrites it in place); the view itself only indexes it.
func (v *View) ResetAllAtRoot() {
	v.occ.Reset()
	root := v.topo.Root()
	for i := range v.node {
		v.node[i] = root
		v.present[i] = true
		v.occ.Add(root)
	}
	v.count = len(v.labels)
}

// Clone returns an independent deep copy.
func (v *View) Clone() *View {
	cp := &View{
		topo:    v.topo,
		occ:     v.occ.Clone(),
		labels:  v.labels,
		node:    make([]tree.Node, len(v.node)),
		present: make([]bool, len(v.present)),
		count:   v.count,
	}
	copy(cp.node, v.node)
	copy(cp.present, v.present)
	return cp
}

// CopyFrom overwrites v with src without allocating; both must share the
// same topology and label table.
func (v *View) CopyFrom(src *View) {
	if v.topo != src.topo || len(v.labels) != len(src.labels) {
		panic("core: CopyFrom across incompatible views")
	}
	v.occ.CopyFrom(src.occ)
	copy(v.node, src.node)
	copy(v.present, src.present)
	v.count = src.count
}

// Topology returns the shared tree shape.
func (v *View) Topology() *tree.Topology { return v.topo }

// Occupancy exposes the view's subtree counts (read-mostly; mutate only
// through View methods).
func (v *View) Occupancy() *tree.Occupancy { return v.occ }

// Size returns the number of balls currently present.
func (v *View) Size() int { return v.count }

// Universe returns the number of dense indices (present or not).
func (v *View) Universe() int { return len(v.labels) }

// Label returns the label of the ball at dense index idx.
func (v *View) Label(idx int) proto.ID { return v.labels[idx] }

// IndexOf returns the dense index of a label via binary search.
func (v *View) IndexOf(id proto.ID) (int, bool) {
	i := sort.Search(len(v.labels), func(i int) bool { return v.labels[i] >= id })
	if i < len(v.labels) && v.labels[i] == id {
		return i, true
	}
	return 0, false
}

// Present reports whether the ball at idx is in the view.
func (v *View) Present(idx int) bool { return v.present[idx] }

// Node returns the current position of the ball at idx.
func (v *View) Node(idx int) tree.Node { return v.node[idx] }

// Remove deletes the ball at idx from the view (Algorithm 1's Remove),
// freeing its capacity. Removing an absent ball is a no-op.
func (v *View) Remove(idx int) {
	if !v.present[idx] {
		return
	}
	v.present[idx] = false
	v.count--
	v.occ.Remove(v.node[idx])
}

// SetNode relocates the ball at idx (Algorithm 1's UpdateNode). It panics
// if the ball is absent.
func (v *View) SetNode(idx int, node tree.Node) {
	if !v.present[idx] {
		panic(fmt.Sprintf("core: SetNode on absent ball %d", idx))
	}
	v.occ.Move(v.node[idx], node)
	v.node[idx] = node
}

// AllAtLeaves reports the termination condition of Algorithm 1 (line 29):
// every present ball occupies a leaf.
func (v *View) AllAtLeaves() bool {
	for i, p := range v.present {
		if p && !v.topo.IsLeaf(v.node[i]) {
			return false
		}
	}
	return true
}

// OrderedPresent returns the dense indices of present balls sorted by the
// paper's priority order <R (Definition 1): descending depth first, then
// ascending label. With labelOnly (the E12 ablation) depth is ignored and
// the order is ascending label alone.
//
// The returned slice is freshly allocated; callers may keep it across
// subsequent view mutations (it is a snapshot, exactly what lines 12–21
// iterate over).
func (v *View) OrderedPresent(labelOnly bool) []int32 {
	ordered := v.orderedPresent(labelOnly)
	out := make([]int32, len(ordered))
	copy(out, ordered)
	return out
}

// orderedPresent is OrderedPresent on the view's reusable scratch: the
// returned slice is valid only until the next orderedPresent call on this
// view, but remains a stable snapshot across view mutations, which is all
// the move passes need. Steady-state calls do not allocate.
func (v *View) orderedPresent(labelOnly bool) []int32 {
	if cap(v.orderBuf) < len(v.labels) {
		v.orderBuf = make([]int32, 0, len(v.labels))
	}
	out := v.orderBuf[:0]
	if labelOnly {
		for i, p := range v.present {
			if p {
				out = append(out, int32(i))
			}
		}
		return out
	}
	maxDepth := v.topo.MaxDepth()
	if len(v.depthCnt) < maxDepth+1 {
		v.depthCnt = make([]int32, maxDepth+1)
		v.depthOff = make([]int32, maxDepth+1)
	}
	// Counting sort by depth: bucket sizes, then place in ascending label
	// order within each depth, deepest bucket first.
	counts := v.depthCnt
	for d := 0; d <= maxDepth; d++ {
		counts[d] = 0
	}
	for i, p := range v.present {
		if p {
			counts[v.topo.Depth(v.node[i])]++
		}
	}
	starts := v.depthOff
	acc := int32(0)
	for d := maxDepth; d >= 0; d-- {
		starts[d] = acc
		acc += counts[d]
	}
	out = out[:acc]
	for i, p := range v.present {
		if p {
			d := v.topo.Depth(v.node[i])
			out[starts[d]] = int32(i)
			starts[d]++
		}
	}
	return out
}

// RankAtNode returns the 0-based label rank of the ball at idx among the
// present balls parked at the same node — the input to the deterministic
// path rule. It panics if the ball is absent.
func (v *View) RankAtNode(idx int) int {
	if !v.present[idx] {
		panic(fmt.Sprintf("core: RankAtNode on absent ball %d", idx))
	}
	at := v.node[idx]
	rank := 0
	for i := 0; i < idx; i++ {
		if v.present[i] && v.node[i] == at {
			rank++
		}
	}
	return rank
}

// CheckConsistency verifies that the occupancy matches the position table,
// returning the first violation found. It deliberately does not assert the
// capacity invariant: a view may transiently hold a crashed ball's stale
// position alongside a correct ball's authoritative one, overfilling a
// subtree until the stale ball is removed at its next silent turn — the
// paper's Lemma 1 bounds only correct balls. Callers that know the view is
// residue-free assert Occupancy().CheckCapacityInvariant() separately.
func (v *View) CheckConsistency() error {
	rebuilt := tree.NewOccupancy(v.topo)
	n := 0
	for i, p := range v.present {
		if p {
			rebuilt.Add(v.node[i])
			n++
		}
	}
	if n != v.count {
		return fmt.Errorf("core: view count %d != %d present balls", v.count, n)
	}
	for node := 0; node < v.topo.NumNodes(); node++ {
		if rebuilt.Count(tree.Node(node)) != v.occ.Count(tree.Node(node)) {
			return fmt.Errorf("core: occupancy mismatch at node %d: %d recorded, %d actual",
				node, v.occ.Count(tree.Node(node)), rebuilt.Count(tree.Node(node)))
		}
	}
	return nil
}

// CheckLemma1 verifies the paper's Lemma 1 over a designated subset of
// balls (the correct ones, as known to the caller): in every subtree their
// count never exceeds the leaf count. include is indexed by dense ball
// index; nil means every present ball.
func (v *View) CheckLemma1(include []bool) error {
	occ := tree.NewOccupancy(v.topo)
	for i, p := range v.present {
		if p && (include == nil || include[i]) {
			occ.Add(v.node[i])
		}
	}
	return occ.CheckCapacityInvariant()
}
