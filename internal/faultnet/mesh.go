package faultnet

import (
	"fmt"
	"time"
)

// Mesh is the fault wiring of an n-node cluster: one proxy per ordered
// peer pair, each on its own link so a node can be cut off in one
// direction only, plus (optionally) one client proxy per node. Faults name
// a node; the mesh applies them to every link that touches it at the same
// instant, the way a real network cut behaves.
type Mesh struct {
	peer   [][]*Proxy // peer[i][j]: the route node i dials toward peer j; nil when i == j
	client []*Proxy   // client[i]: the route clients dial toward node i; nil without client proxies
}

// NewMesh starts the proxies of an n-node mesh. peer(i, j) gives the
// listen address and target of node i's proxy toward peer j; client(i),
// when non-nil, those of node i's client proxy. A listen port of 0 picks a
// free one; the chosen addresses are PeerAddr and ClientAddr.
func NewMesh(n int, peer func(i, j int) (listen, target string), client func(i int) (listen, target string)) (*Mesh, error) {
	m := &Mesh{peer: make([][]*Proxy, n)}
	start := func(name, listen, target string) (*Proxy, error) {
		p, err := NewProxy(listen, target, NewLink(name))
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("faultnet: %s proxy: %w", name, err)
		}
		return p, nil
	}
	var err error
	for i := range m.peer {
		m.peer[i] = make([]*Proxy, n)
		for j := range m.peer[i] {
			if j == i {
				continue
			}
			listen, target := peer(i, j)
			if m.peer[i][j], err = start(fmt.Sprintf("repl-%d->%d", i, j), listen, target); err != nil {
				return nil, err
			}
		}
	}
	if client != nil {
		m.client = make([]*Proxy, n)
		for i := range m.client {
			listen, target := client(i)
			if m.client[i], err = start(fmt.Sprintf("client-%d", i), listen, target); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// PeerAddr is the address node i dials to reach peer j.
func (m *Mesh) PeerAddr(i, j int) string { return m.peer[i][j].Addr() }

// ClientAddr is the address clients dial to reach node i.
func (m *Mesh) ClientAddr(i int) string { return m.client[i].Addr() }

// Close stops every proxy and tears down every proxied connection.
func (m *Mesh) Close() {
	for _, row := range append([][]*Proxy{m.client}, m.peer...) {
		for _, p := range row {
			if p != nil {
				p.Close()
			}
		}
	}
}

// each calls f on every link touching node x: its routes toward each peer,
// each peer's route toward it, and its client link.
func (m *Mesh) each(x int, f func(*Link)) {
	for j := range m.peer {
		if j != x {
			f(m.peer[x][j].link)
			f(m.peer[j][x].link)
		}
	}
	if m.client != nil {
		f(m.client[x].link)
	}
}

// Partition cuts node x off. A full partition drops every link touching x
// in both directions and resets established flows, so stream failures
// surface at once. A one-way partition deafens x: traffic toward it
// vanishes while its own transmissions still deliver — the return
// direction drops on routes it dials, the forward direction on routes
// dialed toward it (its client link included) — and connections stay
// standing, so only timeouts, never connection errors, expose the fault.
// A deafened node is the election-stability worst case: it reaches every
// peer with (pre-)vote solicitations while hearing no leader itself.
func (m *Mesh) Partition(x int, oneWay bool) {
	if !oneWay {
		m.each(x, func(l *Link) { l.Partition(false); l.ResetConns() })
		return
	}
	for j := range m.peer {
		if j != x {
			m.peer[x][j].link.SetDrop(BtoA, true)
			m.peer[j][x].link.SetDrop(AtoB, true)
		}
	}
	if m.client != nil {
		m.client[x].link.SetDrop(AtoB, true)
	}
}

// Heal clears every fault on the links touching node x. Dials held at a
// partition gate complete immediately.
func (m *Mesh) Heal(x int) { m.each(x, (*Link).Heal) }

// Reset kills the established connections touching node x without
// changing fault state — a route flap.
func (m *Mesh) Reset(x int) { m.each(x, (*Link).ResetConns) }

// Latency adds d to both directions of every link touching node x.
func (m *Mesh) Latency(x int, d time.Duration) {
	m.each(x, func(l *Link) {
		l.SetLatency(AtoB, d)
		l.SetLatency(BtoA, d)
	})
}

// Rate caps both directions of every link touching node x at bps bytes
// per second.
func (m *Mesh) Rate(x int, bps int) {
	m.each(x, func(l *Link) {
		l.SetRate(AtoB, bps)
		l.SetRate(BtoA, bps)
	})
}

// Apply fires one scheduled event against node x, the node the caller
// resolved the event's target to.
func (m *Mesh) Apply(e Event, x int) {
	switch e.Action {
	case ActPartition:
		m.Partition(x, e.OneWay)
	case ActHeal:
		m.Heal(x)
	case ActReset:
		m.Reset(x)
	case ActLatency:
		m.Latency(x, e.Latency)
	case ActRate:
		m.Rate(x, e.Rate)
	}
}
