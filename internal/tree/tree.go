// Package tree implements the virtual tree at the heart of the
// Balls-into-Leaves algorithm: n target names arranged as the leaves of a
// balanced tree, with per-subtree occupancy counts supporting the
// RemainingCapacity operation of Algorithm 1 in O(1) per node and ball
// movement in O(depth).
//
// The paper uses a binary tree and assumes n is a power of two for
// exposition; this package supports any n >= 1 and any arity k >= 2 by
// splitting each node's leaf interval [lo, hi) into k near-equal parts
// (sibling capacities differ by at most one). For binary power-of-two
// trees the shape matches the paper exactly; higher arities are the E13
// ablation (fewer levels, more per-node contention, bigger capacity
// fan-out per coin flip).
//
// The immutable shape (Topology) is shared across all local views of all
// balls; each view carries only its own Occupancy (subtree ball counts).
package tree

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Node is an index into a Topology's node arrays. The root is node 0 and
// nodes are numbered in breadth-first order, so a node's children are
// contiguous and siblings are adjacent.
type Node int32

// None is the sentinel for "no node" (e.g. the parent of the root).
const None Node = -1

// MaxArity bounds the supported fan-out; beyond this the tree degenerates
// into the flat balls-into-bins the paper's baselines cover.
const MaxArity = 64

// Topology is the immutable shape of a balanced arity-k tree over N
// leaves. It is safe for concurrent use by any number of views.
type Topology struct {
	n        int
	arity    int
	numNodes int
	maxDepth int

	lo, hi     []int32 // leaf-rank interval [lo, hi) covered by each node
	childOff   []int32 // node -> first index into childList; children are contiguous
	childList  []Node
	firstChild []Node // node -> first child, 0 for leaves (the root is never a child)
	parent     []Node
	depth      []int32
	leafNode   []Node // leaf rank -> node index
}

// NewTopology builds the balanced binary tree over n leaves — the paper's
// shape. It panics if n < 1.
func NewTopology(n int) *Topology { return NewTopologyArity(n, 2) }

// denseMax bounds the dense table of binary shapes: Shared keeps the
// topology over every n in 1..denseMax once some caller has asked for one
// that large. A shape costs about 60 bytes per leaf, so the whole table is
// about 30·denseMax² bytes — 2 MB per process, whatever the number of
// shards or simulations reading it. It covers the batch sizes a name-service
// epoch loop wanders over; larger shapes cost more to use than to look up.
const denseMax = 256

// sharedCap bounds the most-recently-used list behind the dense table, for
// larger or non-binary shapes. Experiment sweeps revisit a handful of
// (n, arity) shapes thousands of times; a few retained shapes cost megabytes
// while saving a full O(n) rebuild per run.
const sharedCap = 8

var (
	// dense[n] is the binary topology over n leaves for n <= denseFilled:
	// entries are written under sharedMu and published by the store to
	// denseFilled, so readers need no lock.
	dense       [denseMax + 1]*Topology
	denseFilled atomic.Int32

	sharedMu    sync.Mutex
	sharedTopos [sharedCap]*Topology // most recently used first
)

// Shared returns a topology for (n, arity), reusing a cached instance when
// one exists. Topologies are immutable and safe for concurrent use, so
// distinct simulations — including parallel replicates and the name
// service's shards — can share one shape.
//
// Binary shapes over at most denseMax leaves come from a dense table read
// without a lock. The table is filled through the largest n asked for so
// far, not entry by entry: a long-lived caller whose size wanders below its
// own high-water mark (a shard's cohort, re-armed every epoch) never waits
// for, or allocates, a shape. Everything else goes through a mutex-guarded
// list of the sharedCap most recently used shapes.
func Shared(n, arity int) *Topology {
	if arity == 2 && 1 <= n && n <= denseMax {
		if int32(n) > denseFilled.Load() {
			fillDense(n)
		}
		return dense[n]
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	for i, t := range sharedTopos {
		if t != nil && t.n == n && t.arity == arity {
			copy(sharedTopos[1:i+1], sharedTopos[:i])
			sharedTopos[0] = t
			return t
		}
	}
	t := NewTopologyArity(n, arity)
	copy(sharedTopos[1:], sharedTopos[:sharedCap-1])
	sharedTopos[0] = t
	return t
}

// fillDense builds the dense table's missing entries up to n.
func fillDense(n int) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	for k := int(denseFilled.Load()) + 1; k <= n; k++ {
		dense[k] = NewTopologyArity(k, 2)
		denseFilled.Store(int32(k))
	}
}

// NewTopologyArity builds a balanced arity-k tree over n leaves. It panics
// if n < 1 or k is outside [2, MaxArity].
func NewTopologyArity(n, arity int) *Topology {
	if n < 1 {
		panic(fmt.Sprintf("tree: topology needs n >= 1 leaves, got %d", n))
	}
	if arity < 2 || arity > MaxArity {
		panic(fmt.Sprintf("tree: arity must be in [2,%d], got %d", MaxArity, arity))
	}
	t := &Topology{n: n, arity: arity}
	// Breadth-first construction: when a node is processed its children
	// are allocated consecutively, so the child list stays contiguous. The
	// node arrays double as the BFS queue (a span is exactly its [lo, hi)
	// interval), and every inner node has at least two children, so the
	// node count is bounded by 2n-1 and each array is allocated exactly
	// once.
	maxNodes := 2*n - 1
	t.lo = append(make([]int32, 0, maxNodes), 0)
	t.hi = append(make([]int32, 0, maxNodes), int32(n))
	t.parent = append(make([]Node, 0, maxNodes), None)
	t.depth = make([]int32, 0, maxNodes)
	t.childOff = make([]int32, 0, maxNodes+1)
	if n > 1 {
		t.childList = make([]Node, 0, maxNodes-1)
	}
	for head := 0; head < len(t.lo); head++ {
		node := Node(head)
		t.childOff = append(t.childOff, int32(len(t.childList)))
		if p := t.parent[head]; p == None {
			t.depth = append(t.depth, 0)
		} else {
			t.depth = append(t.depth, t.depth[p]+1)
		}
		if d := int(t.depth[node]); d > t.maxDepth {
			t.maxDepth = d
		}
		width := t.hi[head] - t.lo[head]
		if width == 1 {
			continue // leaf; children filled lazily below
		}
		// Split into min(arity, width) near-equal parts, ceilings first.
		parts := int32(arity)
		if width < parts {
			parts = width
		}
		base, extra := width/parts, width%parts
		cur := t.lo[head]
		for i := int32(0); i < parts; i++ {
			size := base
			if i < extra {
				size++
			}
			child := Node(len(t.lo))
			t.childList = append(t.childList, child)
			t.lo = append(t.lo, cur)
			t.hi = append(t.hi, cur+size)
			t.parent = append(t.parent, node)
			cur += size
		}
	}
	t.numNodes = len(t.lo)
	t.childOff = append(t.childOff, int32(len(t.childList)))
	t.leafNode = make([]Node, n)
	t.firstChild = make([]Node, t.numNodes)
	for i := 0; i < t.numNodes; i++ {
		if t.hi[i]-t.lo[i] == 1 {
			t.leafNode[t.lo[i]] = Node(i)
		} else {
			t.firstChild[i] = t.childList[t.childOff[i]]
		}
	}
	return t
}

// N returns the number of leaves (the size of the target namespace).
func (t *Topology) N() int { return t.n }

// Arity returns the maximum fan-out.
func (t *Topology) Arity() int { return t.arity }

// NumNodes returns the total node count.
func (t *Topology) NumNodes() int { return t.numNodes }

// MaxDepth returns the depth of the deepest leaf (root depth is 0).
func (t *Topology) MaxDepth() int { return t.maxDepth }

// Root returns the root node.
func (t *Topology) Root() Node { return 0 }

// IsLeaf reports whether node is a leaf: a single load of the firstChild
// table (the root is node 0 and is never anyone's child, so 0 marks
// leaves).
func (t *Topology) IsLeaf(node Node) bool {
	return t.firstChild[node] == 0
}

// FirstChild returns the node's first child as a single array load, or None
// for a leaf. In a binary topology every inner node has exactly two
// children, stored consecutively: the second child is FirstChild+1.
func (t *Topology) FirstChild(node Node) Node {
	if c := t.firstChild[node]; c != 0 {
		return c
	}
	return None
}

// Children returns the node's children, left to right. The returned slice
// aliases the topology and must not be modified. Leaves return an empty
// slice.
func (t *Topology) Children(node Node) []Node {
	return t.childList[t.childOff[node]:t.childOff[node+1]]
}

// Left returns the node's first child, or None for a leaf.
func (t *Topology) Left(node Node) Node {
	kids := t.Children(node)
	if len(kids) == 0 {
		return None
	}
	return kids[0]
}

// Right returns the node's last child, or None for a leaf. In a binary
// tree this is the right child.
func (t *Topology) Right(node Node) Node {
	kids := t.Children(node)
	if len(kids) == 0 {
		return None
	}
	return kids[len(kids)-1]
}

// Parent returns the parent of node, or None for the root.
func (t *Topology) Parent(node Node) Node { return t.parent[node] }

// Depth returns the depth of node; the root has depth 0.
func (t *Topology) Depth(node Node) int { return int(t.depth[node]) }

// Leaves returns the number of leaves in the subtree rooted at node.
func (t *Topology) Leaves(node Node) int { return int(t.hi[node] - t.lo[node]) }

// LeafRank returns the 0-based left-to-right rank of a leaf node. The
// decided name of a ball terminating at this leaf is LeafRank+1. It panics
// if node is not a leaf.
func (t *Topology) LeafRank(node Node) int {
	lo := t.lo[node]
	if t.hi[node]-lo != 1 {
		panic(fmt.Sprintf("tree: LeafRank of inner node %d", node))
	}
	return int(lo)
}

// Leaf returns the leaf node with the given 0-based left-to-right rank.
func (t *Topology) Leaf(rank int) Node {
	if rank < 0 || rank >= t.n {
		panic(fmt.Sprintf("tree: leaf rank %d out of [0,%d)", rank, t.n))
	}
	return t.leafNode[rank]
}

// Contains reports whether the subtree rooted at node contains the leaf
// with the given rank.
func (t *Topology) Contains(node Node, leafRank int) bool {
	return int(t.lo[node]) <= leafRank && leafRank < int(t.hi[node])
}

// OnPathToLeaf returns the child of node on the path towards the leaf with
// the given rank. It panics if node is a leaf or does not contain the leaf.
func (t *Topology) OnPathToLeaf(node Node, leafRank int) Node {
	if t.IsLeaf(node) {
		panic(fmt.Sprintf("tree: OnPathToLeaf from leaf %d", node))
	}
	if !t.Contains(node, leafRank) {
		panic(fmt.Sprintf("tree: leaf %d not under node %d", leafRank, node))
	}
	// Children are allocated consecutively in BFS order, so they are the
	// node range [firstChild, firstChild+fanout) and their hi bounds are
	// adjacent in memory: a short forward scan (one step in the binary
	// case) replaces the child-list indirection.
	c := t.firstChild[node]
	for int32(leafRank) >= t.hi[c] {
		c++
	}
	return c
}

// NumChildren returns the node's fan-out (0 for a leaf). Children occupy
// the consecutive node range [FirstChild, FirstChild+NumChildren).
func (t *Topology) NumChildren(node Node) int {
	return int(t.childOff[node+1] - t.childOff[node])
}

// Sibling returns the next sibling (or for the last child, the previous
// one), or None for the root. In a binary tree this is the other child of
// the parent.
func (t *Topology) Sibling(node Node) Node {
	p := t.parent[node]
	if p == None {
		return None
	}
	kids := t.Children(p)
	for i, k := range kids {
		if k == node {
			if i+1 < len(kids) {
				return kids[i+1]
			}
			return kids[i-1]
		}
	}
	panic(fmt.Sprintf("tree: node %d missing from its parent's children", node))
}

// IsAncestor reports whether a is a (weak) ancestor of b, i.e. b lies in
// the subtree rooted at a (a == b counts).
func (t *Topology) IsAncestor(a, b Node) bool {
	return t.lo[a] <= t.lo[b] && t.hi[b] <= t.hi[a] && t.depth[a] <= t.depth[b]
}
