package main

import (
	"fmt"
	"time"
)

// workload is one configuration blnamed ships plus the traffic shape that
// stresses it. The server side is wired exactly as cmd/blnamed's build()
// wires it (see cluster.go); only the load differs.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json carries
	// the same text).
	why string
	// durable: WAL on a DirSink temp dir, FsyncGroup, SnapshotEvery 4096.
	durable bool
	// nodes is the cluster size: 1 = standalone, 3 = replicated.
	nodes int
	// pacedRate, when non-zero, makes the load an open loop: seeded Poisson
	// arrivals at this many acquires per second across all connections.
	// Zero is the closed loop (each grant is released and replaced at once).
	pacedRate float64
}

// The four workloads. Two bypass what the other two exercise: volatile-closed
// runs no durable/repl code, so a commit-pipeline change predicts "no
// change" there; the paced run uses the group-fsync commit layer for latency
// instead of throughput, so batching longer shows up as a worse p50.
var workloads = []workload{
	{
		name:  "volatile-closed",
		why:   "standalone, no WAL, closed loop: CPU-bound in wire, server ingest/delivery, epoch close and the client; durable and repl do nothing",
		nodes: 1,
	},
	{
		name:    "group-fsync-closed",
		why:     "standalone, WAL + group fsync on a steady 2 ms-flush disk, closed loop: the flushes and the shard's stop-and-wait in WaitCommitted dominate; the commit-pipeline item claims here",
		durable: true,
		nodes:   1,
	},
	{
		name:    "repl3-closed",
		why:     "three in-process replicas on steady 2 ms-flush disks, closed loop against the leader: quorum commit, record streaming and follower apply dominate",
		durable: true,
		nodes:   3,
	},
	{
		name:      "group-fsync-paced",
		why:       "group-fsync server under a seeded open loop at 3000 acquires/s, a third of closed-loop capacity: small batches, every op waits whole flushes, so longer batching shows as a worse p50",
		durable:   true,
		nodes:     1,
		pacedRate: 3000,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Load shape shared by every workload (ISSUE 11): the reference box has two
// cores, so two client connections with one issuing goroutine each.
const (
	loadConns      = 2
	closedInflight = 64 // acquires in flight per connection, closed loop
	// pacedInflight is the open loop's in-flight cap per connection; an
	// arrival that finds it reached waits for a slot, timed from when it was
	// due. At 1500 arrivals/s per connection it covers a stall of about
	// 700 ms, so the server sees true open-loop bursts after anything
	// shorter; it stays below the server's MaxOutstanding (4096), which
	// would reject.
	pacedInflight = 1024
	serviceShards = 2
	serviceSeed   = 7
	// prefillWave bounds the acquires a connection pipelines during prefill,
	// below the server's default MaxOutstanding (4096).
	prefillWave = 2048
)

// runConfig sizes one run. The command line fills it from flags; the smoke
// test shrinks it.
type runConfig struct {
	seed     uint64
	shardCap int           // names per shard
	warmup   time.Duration // load running, nothing recorded
	window   time.Duration // one measure window
	windows  int           // measure windows in an untraced run
	setups   int           // set-ups timed for setup_s (the first one is measured on)
	// electionTimeout is repl.Config.ElectionTimeout; zero keeps blnamed's
	// default (500ms). The smoke test widens it so a starved test binary
	// cannot trip a spurious election.
	electionTimeout time.Duration
	probeFor        time.Duration // how long each direct probe loops
	flushFloor      time.Duration // the modelled disk's flush time (disk.go)
	outDir          string        // spans and WAL temp dirs live here
}

func defaultRunConfig(seed uint64, seconds int, outDir string) runConfig {
	return runConfig{
		seed:       seed,
		shardCap:   8192,
		warmup:     2 * time.Second,
		window:     time.Second,
		windows:    seconds,
		setups:     7,
		probeFor:   100 * time.Millisecond,
		flushFloor: 2 * time.Millisecond,
		outDir:     outDir,
	}
}
