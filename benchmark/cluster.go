package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/namesvc/durable"
	"ballsintoleaves/internal/namesvc/repl"
)

// node is one in-process blnamed: the Service, optional replication Node
// and Server that cmd/blnamed's build() assembles, on a real loopback
// listener.
type node struct {
	dir    string // data dir; "" when volatile
	svc    *namesvc.Service
	repl   *repl.Node
	srv    *namesvc.Server
	ln     net.Listener
	served chan error // Serve's return value
}

// cluster is the system under test: one node, or three with node 0 leading.
type cluster struct {
	cfg   runConfig
	dir   string // temp root holding every node's data dir
	nodes []*node
	// replLns are the replication listeners (empty when standalone). A
	// started repl.Node closes its own; stop closes them all again, which
	// covers the ones a failed set-up never handed over.
	replLns []net.Listener
}

// openService opens a node's Service with blnamed's defaults: cohort runner,
// MaxBatch 0, no journal; with a data dir, per-shard DirSinks under it — each
// behind the modelled disk's flush time (disk.go) — group fsync and a
// checkpoint every 4096 records. tr, when non-nil, decorates the runner and
// the sinks.
func openService(dir string, rc runConfig, tr *tracer) (*namesvc.Service, error) {
	var runner namesvc.Runner = namesvc.CohortRunner{}
	if tr != nil {
		runner = tr.runner(runner)
	}
	cfg := namesvc.Config{
		Shards:   serviceShards,
		ShardCap: rc.shardCap,
		Seed:     serviceSeed,
		Runner:   runner,
	}
	if dir != "" {
		sinks, err := durable.ShardSinks(dir, serviceShards)
		if err != nil {
			return nil, err
		}
		for i := range sinks {
			disk := &steadySink{Sink: sinks[i], floor: rc.flushFloor}
			sinks[i] = disk
			if tr != nil {
				traced := tr.sink(disk, i)
				traced.observeDisk(disk)
				sinks[i] = traced
			}
		}
		cfg.Durable = &namesvc.Durability{
			Sinks:         sinks,
			Fsync:         namesvc.FsyncGroup,
			SnapshotEvery: 4096,
		}
	}
	return namesvc.Open(cfg)
}

// startCluster binds, opens and elects. tr, when non-nil, decorates the
// serving node (node 0): its runner, sinks, commit gate and client listener,
// plus every replication listener.
func startCluster(w workload, cfg runConfig, tr *tracer) (_ *cluster, err error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "data-")
	if err != nil {
		return nil, err
	}
	c := &cluster{cfg: cfg, dir: dir}
	defer func() {
		if err != nil {
			c.close()
		}
	}()

	// Bind everything first: replicated nodes need each other's addresses.
	peers := make([]repl.PeerSpec, w.nodes)
	for i := 0; i < w.nodes; i++ {
		n := &node{}
		c.nodes = append(c.nodes, n)
		if n.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		if w.nodes > 1 {
			rln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			peers[i] = repl.PeerSpec{ReplAddr: rln.Addr().String(), ClientAddr: n.ln.Addr().String()}
			if tr != nil {
				rln = countingListener{Listener: rln, t: tr}
			}
			c.replLns = append(c.replLns, rln)
		}
	}
	for i, n := range c.nodes {
		nodeTr := tr
		if i != 0 {
			nodeTr = nil
		}
		if w.durable {
			n.dir = filepath.Join(dir, fmt.Sprintf("node-%d", i))
		}
		if n.svc, err = openService(n.dir, cfg, nodeTr); err != nil {
			return nil, err
		}
		var gate namesvc.CommitGate
		switch {
		case w.nodes > 1:
			n.repl, err = repl.Start(repl.Config{
				NodeID:          i,
				Peers:           peers,
				Service:         n.svc,
				Listener:        c.replLns[i],
				MetaPath:        filepath.Join(n.dir, "repl-meta"),
				ElectionTimeout: cfg.electionTimeout,
			})
			if err != nil {
				return nil, err
			}
			gate = n.repl
		case w.durable:
			gate = namesvc.GroupGate(n.svc)
		}
		if gate != nil && nodeTr != nil {
			gate = nodeTr.commitGate(gate)
		}
		n.srv, err = namesvc.NewServer(namesvc.ServerConfig{
			Service:   n.svc,
			Gate:      gate,
			IOTimeout: 30 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		if n.repl != nil {
			n.repl.SetServer(n.srv)
		}
		ln := n.ln
		if nodeTr != nil {
			ln = tracedListener{Listener: ln, t: nodeTr}
		}
		n.served = make(chan error, 1)
		go func(srv *namesvc.Server) { n.served <- srv.Serve(ln) }(n.srv)
	}
	if w.nodes > 1 {
		// Election timers run as shipped; node 0 campaigns at once so set-up
		// does not wait out a randomised timeout.
		deadline := time.Now().Add(10 * time.Second)
		for !c.nodes[0].repl.Campaign() {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("node 0 did not win an election within 10s")
			}
		}
	}
	return c, nil
}

// addr is where clients connect: the standalone node, or the leader.
func (c *cluster) addr() string { return c.nodes[0].ln.Addr().String() }

// waitConverged blocks until every follower's per-shard positions equal the
// leader's. The load has stopped, so the leader's positions are final.
func (c *cluster) waitConverged() error {
	want := c.nodes[0].svc.Positions(nil)
	deadline := time.Now().Add(10 * time.Second)
	for _, n := range c.nodes[1:] {
		for !slices.Equal(n.svc.Positions(nil), want) {
			if time.Now().After(deadline) {
				return fmt.Errorf("followers did not reach the leader's positions %v within 10s", want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// stop shuts every node down in blnamed's drain order — listener, server,
// replication node, final checkpoint — and returns each node's per-shard
// digests as they stood before the Service closed.
func (c *cluster) stop() ([][]uint64, error) {
	var first error
	digests := make([][]uint64, len(c.nodes))
	for _, n := range c.nodes {
		if n.ln != nil {
			n.ln.Close()
		}
		if n.srv != nil {
			n.srv.Close()
			if err := <-n.served; err != nil && first == nil {
				first = err
			}
			n.srv = nil
		}
	}
	for i, n := range c.nodes {
		if n.repl != nil {
			n.repl.Close()
			n.repl = nil
		}
		if n.svc != nil {
			digests[i] = n.svc.Stats().Digests
			if err := n.svc.Close(); err != nil && first == nil {
				first = err
			}
			n.svc = nil
		}
	}
	for _, ln := range c.replLns {
		ln.Close()
	}
	return digests, first
}

// recoverAndCompare reopens every durable node's data dir, the way a
// restarted blnamed would, and checks the recovered digests against the
// ones the node closed with. It returns how long node 0's recovery took.
func (c *cluster) recoverAndCompare(closed [][]uint64) (time.Duration, error) {
	var node0 time.Duration
	for i, n := range c.nodes {
		if n.dir == "" {
			continue
		}
		start := time.Now()
		svc, err := openService(n.dir, c.cfg, nil)
		if err != nil {
			return 0, fmt.Errorf("node %d: reopening %s: %w", i, n.dir, err)
		}
		if i == 0 {
			node0 = time.Since(start)
		}
		got := svc.Stats().Digests
		if err := svc.Close(); err != nil {
			return 0, fmt.Errorf("node %d: closing the recovered service: %w", i, err)
		}
		if !slices.Equal(got, closed[i]) {
			return 0, fmt.Errorf("node %d: recovered digests %x, closed with %x", i, got, closed[i])
		}
	}
	return node0, nil
}

// close stops whatever is still running and removes the data dirs.
func (c *cluster) close() {
	c.stop()
	os.RemoveAll(c.dir)
}
