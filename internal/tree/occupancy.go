package tree

import "fmt"

// Occupancy tracks, for one local view, how many balls currently sit inside
// each subtree. A ball "at node η" (parked at an inner node or a leaf)
// counts towards η and every ancestor of η. RemainingCapacity(η) is then
// Leaves(η) minus the subtree count, exactly as defined in Algorithm 1.
//
// Internally the structure stores the remaining capacity per subtree rather
// than the ball count: RemainingCapacity — by far the hottest read, probed
// once or twice per level of every candidate-path walk and every move — is
// then a single array load, while the ball count is recovered on demand as
// Leaves(η) minus the stored capacity.
//
// Occupancy does not know ball identities; views in internal/core pair it
// with a position table. The zero value is unusable; construct with
// NewOccupancy or Clone.
type Occupancy struct {
	topo    *Topology
	capLeft []int32 // remaining capacity of the subtree rooted at each node
}

// NewOccupancy returns an empty occupancy over the given topology.
func NewOccupancy(t *Topology) *Occupancy {
	o := &Occupancy{}
	o.Rebind(t)
	o.Reset()
	return o
}

// Rebind points the occupancy at another topology, reusing its count array
// when it is large enough. The counts are unspecified until Reset or
// CopyFrom.
func (o *Occupancy) Rebind(t *Topology) {
	o.topo = t
	if cap(o.capLeft) < t.NumNodes() {
		o.capLeft = make([]int32, t.NumNodes())
	}
	o.capLeft = o.capLeft[:t.NumNodes()]
}

// Topology returns the tree shape this occupancy counts over.
func (o *Occupancy) Topology() *Topology { return o.topo }

// Clone returns an independent copy; mutating either copy does not affect
// the other. Used when local views diverge within a phase.
func (o *Occupancy) Clone() *Occupancy {
	cp := &Occupancy{topo: o.topo, capLeft: make([]int32, len(o.capLeft))}
	copy(cp.capLeft, o.capLeft)
	return cp
}

// CopyFrom overwrites o's counts with src's without allocating. Both must
// share the same topology.
func (o *Occupancy) CopyFrom(src *Occupancy) {
	if o.topo != src.topo {
		panic("tree: CopyFrom across topologies")
	}
	copy(o.capLeft, src.capLeft)
}

// Reset empties the occupancy: every subtree's remaining capacity returns
// to its leaf count.
func (o *Occupancy) Reset() {
	t := o.topo
	for i := range o.capLeft {
		o.capLeft[i] = t.hi[i] - t.lo[i]
	}
}

// Add records one ball parked at node, updating the node and all ancestors.
func (o *Occupancy) Add(node Node) {
	for n := node; n != None; n = o.topo.parent[n] {
		o.capLeft[n]--
	}
}

// Remove erases one ball parked at node. It panics if the subtree count
// would go negative, which indicates a corrupted view.
func (o *Occupancy) Remove(node Node) {
	t := o.topo
	for n := node; n != None; n = t.parent[n] {
		o.capLeft[n]++
		if o.capLeft[n] > t.hi[n]-t.lo[n] {
			panic(fmt.Sprintf("tree: negative occupancy at node %d", n))
		}
	}
}

// Move relocates one ball from node `from` to node `to`. When one endpoint
// is an ancestor of the other — the only case Algorithm 1 produces, since
// balls move monotonically down (Lemma 2) — only the nodes strictly between
// them change count, so the update is O(|depth(from)-depth(to)|) with no
// walk to the root. Unrelated endpoints fall back to the two-root-path
// update.
func (o *Occupancy) Move(from, to Node) {
	if from == to {
		return
	}
	t := o.topo
	// Leaf intervals nest strictly (every inner node has >= 2 children), so
	// containment alone identifies a proper ancestor once from != to.
	if t.lo[from] <= t.lo[to] && t.hi[to] <= t.hi[from] {
		for n := to; n != from; n = t.parent[n] {
			o.capLeft[n]--
		}
		return
	}
	if t.lo[to] <= t.lo[from] && t.hi[from] <= t.hi[to] {
		for n := from; n != to; n = t.parent[n] {
			o.capLeft[n]++
			if o.capLeft[n] > t.hi[n]-t.lo[n] {
				panic(fmt.Sprintf("tree: negative occupancy at node %d", n))
			}
		}
		return
	}
	o.Remove(from)
	o.Add(to)
}

// DescendAdd walks one ball parked at `from` towards the leaf with the given
// rank, stepping into each child on the path while it has remaining capacity
// (and, when limit > 0, at most limit levels), updating the occupancy of
// every node entered, and returns the stop node.
//
// This fuses Algorithm 1's Remove(cur) + capacity walk + Add(final) of lines
// 14–18 into a single descent: removing a ball at `from` and re-adding it at
// a descendant cancels on count[from..root], so only the nodes strictly
// below `from` change — the exact nodes the walk visits. The ball's own
// occupancy never blocks it, because a ball parked at `from` is not counted
// in any child subtree.
func (o *Occupancy) DescendAdd(from Node, leafRank int, limit int32) Node {
	t := o.topo
	fc, hi := t.firstChild, t.hi
	capLeft := o.capLeft
	rank := int32(leafRank)
	cur := from
	steps := int32(0)
	for {
		next := fc[cur]
		if next == 0 {
			break // leaf
		}
		if limit > 0 && steps >= limit {
			break
		}
		// Children are consecutive nodes with adjacent hi bounds; scan
		// forward to the one containing the target (one step when binary).
		for rank >= hi[next] {
			next++
		}
		if capLeft[next] <= 0 {
			break // next subtree is full; park here
		}
		cur = next
		capLeft[cur]--
		steps++
	}
	return cur
}

// Count returns the number of balls inside the subtree rooted at node
// (including balls parked exactly at node).
func (o *Occupancy) Count(node Node) int {
	return o.topo.Leaves(node) - int(o.capLeft[node])
}

// At returns the number of balls parked exactly at node: the subtree count
// minus the counts of all children.
func (o *Occupancy) At(node Node) int {
	c := o.Count(node)
	for _, child := range o.topo.Children(node) {
		c -= o.Count(child)
	}
	return c
}

// RemainingCapacity returns Leaves(node) minus the subtree ball count: the
// number of additional balls the subtree can still absorb. This is the
// RemainingCapacity(η) operation of Algorithm 1.
func (o *Occupancy) RemainingCapacity(node Node) int {
	return int(o.capLeft[node])
}

// KthFreeLeaf returns the leaf holding the k-th (0-based) unit of remaining
// capacity below node, scanning leaves left to right. With every leaf
// holding at most one ball this is the k-th empty leaf; it is the
// deterministic target used by rank-descent path construction. It panics if
// k is not smaller than the remaining capacity of node.
func (o *Occupancy) KthFreeLeaf(node Node, k int) Node {
	if rc := o.RemainingCapacity(node); k < 0 || k >= rc {
		panic(fmt.Sprintf("tree: KthFreeLeaf k=%d with remaining capacity %d", k, rc))
	}
	for !o.topo.IsLeaf(node) {
		kids := o.topo.Children(node)
		for i, child := range kids {
			cc := o.RemainingCapacity(child)
			if k < cc || i == len(kids)-1 {
				node = child
				break
			}
			k -= cc
		}
	}
	return node
}

// CheckCapacityInvariant verifies Lemma 1 of the paper for this view: no
// subtree holds more balls than it has leaves. It returns an error naming
// the first violating node, or nil.
func (o *Occupancy) CheckCapacityInvariant() error {
	for n := 0; n < o.topo.NumNodes(); n++ {
		if o.capLeft[n] < 0 {
			return fmt.Errorf("tree: capacity invariant violated at node %d: %d balls, %d leaves",
				n, o.Count(Node(n)), o.topo.Leaves(Node(n)))
		}
	}
	return nil
}

// CheckConsistency verifies the internal algebra of the occupancy: every
// inner node's count must equal its children's counts plus the balls parked
// at the node itself (which At derives, so here we check non-negativity of
// At and that the root count equals the total). It returns an error for the
// first inconsistency found.
func (o *Occupancy) CheckConsistency() error {
	for n := 0; n < o.topo.NumNodes(); n++ {
		if o.At(Node(n)) < 0 {
			return fmt.Errorf("tree: node %d has negative parked-ball count %d", n, o.At(Node(n)))
		}
	}
	return nil
}
