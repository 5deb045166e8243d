package tree

import (
	"reflect"
	"sync"
	"testing"
)

// TestSharedReturnsTheBuiltShape pins what Shared promises on both of its
// paths — the dense table of small binary shapes and the most-recently-used
// list behind it: the shape is the one NewTopologyArity builds, and asking
// again returns the same instance.
func TestSharedReturnsTheBuiltShape(t *testing.T) {
	t.Parallel()
	for _, c := range []struct{ n, arity int }{
		{1, 2}, {2, 2}, {97, 2}, {denseMax, 2}, {denseMax + 1, 2}, {1000, 2}, {97, 3}, {5, MaxArity},
	} {
		got := Shared(c.n, c.arity)
		if want := NewTopologyArity(c.n, c.arity); !reflect.DeepEqual(got, want) {
			t.Errorf("Shared(%d, %d) differs from NewTopologyArity's shape", c.n, c.arity)
		}
		if again := Shared(c.n, c.arity); again != got {
			t.Errorf("Shared(%d, %d) built the shape twice", c.n, c.arity)
		}
	}
}

// TestSharedDenseNeverAllocatesBelowHighWater is the property the name
// service's epoch loop relies on: once a binary shape of some size has been
// asked for, every smaller one is already there.
func TestSharedDenseNeverAllocatesBelowHighWater(t *testing.T) {
	Shared(200, 2)
	n := 0
	if allocs := testing.AllocsPerRun(199, func() {
		n++
		if Shared(n, 2).N() != n {
			t.Fatalf("Shared(%d, 2) has %d leaves", n, Shared(n, 2).N())
		}
	}); allocs != 0 {
		t.Errorf("Shared allocated %v objects per shape below its high-water mark, want 0", allocs)
	}
}

// TestSharedConcurrent drives both paths from several goroutines at once
// (run under -race): every caller must get a complete shape of the size it
// asked for.
func TestSharedConcurrent(t *testing.T) {
	t.Parallel()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				n := 1 + (i*37+g*101)%(denseMax+40)
				topo := Shared(n, 2)
				if topo.N() != n || topo.NumNodes() != 2*n-1 || topo.Leaf(n-1) == None {
					t.Errorf("Shared(%d, 2): %d leaves, %d nodes", n, topo.N(), topo.NumNodes())
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
