package faultnet

import "testing"

// TestMeshFaultMapping pins how node faults map onto a 3-node mesh's
// links: a full partition drops both directions of every link touching
// the node and nothing else, a one-way partition deafens it (the return
// direction of the routes it dials, the forward direction of the routes
// dialed toward it, client link included), and Heal clears both. The
// proxies carry no traffic; only link state is read.
func TestMeshFaultMapping(t *testing.T) {
	const n, x = 3, 1
	const listen, target = "127.0.0.1:0", "127.0.0.1:1" // never dialed
	m, err := NewMesh(n,
		func(i, j int) (string, string) { return listen, target },
		func(i int) (string, string) { return listen, target })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	type linkRef struct {
		link    *Link
		touches bool // the link joins x to a peer or to its clients
		xDials  bool // x is the link's A side
	}
	var links []linkRef
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				links = append(links, linkRef{m.peer[i][j].link, i == x || j == x, i == x})
			}
		}
		links = append(links, linkRef{m.client[i].link, i == x, false})
	}
	check := func(op string, want func(r linkRef, d Dir) bool) {
		t.Helper()
		for _, r := range links {
			for _, d := range []Dir{AtoB, BtoA} {
				if got := r.link.Dropped(d); got != want(r, d) {
					t.Errorf("after %s: %v: %v dropped=%v, want %v", op, r.link, d, got, !got)
				}
			}
		}
	}
	healed := func(linkRef, Dir) bool { return false }

	m.Partition(x, false)
	check("full partition", func(r linkRef, d Dir) bool { return r.touches })
	m.Heal(x)
	check("heal", healed)

	m.Partition(x, true)
	check("one-way partition", func(r linkRef, d Dir) bool {
		switch {
		case !r.touches:
			return false
		case r.xDials:
			return d == BtoA // replies on the routes x dials
		default:
			return d == AtoB // requests on the routes dialed toward x
		}
	})
	m.Heal(x)
	check("heal", healed)
}
