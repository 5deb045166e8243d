// Command blnamed is the long-lived name-allocation daemon: it serves
// acquire/release traffic over TCP, batching arriving acquires into epochs
// and running one Balls-into-Leaves renaming instance per epoch against the
// free slice of a sharded namespace (see internal/namesvc).
//
// Start a daemon serving 4 independent shards of 4096 names each:
//
//	blnamed -listen 127.0.0.1:4720 -shards 4 -shard-cap 4096 -seed 7
//
// Drive it with the load generator:
//
//	blload -connect 127.0.0.1:4720 -conns 4 -outstanding 64 -duration 5s
//
// Epochs close as soon as a shard has queued work: acquires that arrive
// while one epoch runs form the next batch, so there is no batching window
// to tune. -journal records per-shard assignment journals
// for auditing; a long-lived daemon should keep the default -journal-limit
// rolling window (the divergence-detecting ledger digest always covers the
// full history, only replay of dropped old entries is lost), since an
// unbounded journal (-journal-limit 0) grows memory forever.
//
// Connection failures map onto the paper's crash model: a connection that
// dies mid-epoch has its queued acquires cancelled or its fresh grants
// absorbed (assigned and immediately released, never observable twice), and
// every name it held is returned to the free pool. Malformed frames are
// clean per-connection errors; the rest of the daemon is unaffected.
//
// -data-dir makes the daemon durable: every shard writes a write-ahead log
// plus periodic snapshots (-snapshot-every records) under the directory,
// and a restarted daemon recovers the ledgers — holders, digests,
// request-ID counters — before serving. -fsync picks the flush policy:
// "epoch" fsyncs every WAL record before its grants are acknowledged,
// "group" delivers a shard's grants only after a flush covering their
// records (one fsync absorbs every epoch the shard closed while the
// previous one was on the disk, and the shards' flushes overlap). Either
// way no client sees a grant a power cut could forget. Clients that held
// names before a crash re-attach them with the reclaim op and release them
// normally. A SIGTERM drain writes a final checkpoint, so a clean restart
// recovers from a snapshot instead of a log replay.
//
// -replicate turns the daemon into one member of a fault-tolerant cluster
// (see internal/namesvc/repl): -peers lists every member's replication and
// client addresses, -node-id names this one, and an election decides who
// serves writes. The leader streams each sealed WAL record to its
// followers and acknowledges a grant only after a quorum holds the records
// behind it; followers reject writes with a redirect to the leader
// (a namesvc.Session follows it automatically). Kill the leader and
// a follower takes over without losing an acknowledged grant; the cmd/
// blcluster launcher scripts exactly that demonstration.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/namesvc/durable"
	"ballsintoleaves/internal/namesvc/repl"
)

// errFlagsReported marks parse failures the FlagSet already printed.
var errFlagsReported = errors.New("flag parsing failed")

// config is the parsed and validated command line.
type config struct {
	listen         string
	shards         int
	shardCap       int
	seed           uint64
	maxBatch       int
	timeout        time.Duration
	maxOutstanding int
	maxConnQueue   int
	journal        bool
	journalLimit   int
	quiet          bool
	manualEpochs   bool
	dataDir        string
	fsyncMode      namesvc.FsyncMode
	snapshotEvery  int

	replicate       bool
	nodeID          int
	peers           []repl.PeerSpec
	electionTimeout time.Duration
	retainRecords   int
}

// newFlagSet defines blnamed's flags over cfg, plus the raw -fsync and
// -peers strings that parseFlags validates.
func newFlagSet(cfg *config, fsync, peers *string) *flag.FlagSet {
	fs := flag.NewFlagSet("blnamed", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.StringVar(&cfg.listen, "listen", "", "address to listen on (required)")
	fs.IntVar(&cfg.shards, "shards", 1, "independent namespace shards")
	fs.IntVar(&cfg.shardCap, "shard-cap", 1024, "names per shard")
	fs.Uint64Var(&cfg.seed, "seed", 0, "seed driving every epoch's renaming randomness")
	fs.IntVar(&cfg.maxBatch, "max-batch", 0, "max acquires assigned per epoch (0 = shard capacity)")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-operation network timeout")
	fs.IntVar(&cfg.maxOutstanding, "max-outstanding", 0,
		"per-connection in-flight acquire cap; beyond it acquires are rejected busy (0 = server default)")
	fs.IntVar(&cfg.maxConnQueue, "max-conn-queue", 0,
		"per-connection pending outbound byte cap; a reader too slow to drain it is disconnected (0 = server default)")
	fs.BoolVar(&cfg.journal, "journal", false, "record per-shard assignment journals (audit)")
	fs.IntVar(&cfg.journalLimit, "journal-limit", 1<<20,
		"with -journal, retain only the most recent entries per shard (0 = unbounded growth)")
	fs.BoolVar(&cfg.quiet, "quiet", false, "suppress per-connection logging")
	fs.BoolVar(&cfg.manualEpochs, "manual-epochs", false,
		"testing/replay mode: no autonomous epoch loops; epochs close only on a client's epoch op, making epoch composition a pure function of wire traffic")
	fs.StringVar(&cfg.dataDir, "data-dir", "",
		"directory for per-shard write-ahead logs and snapshots; empty = volatile")
	fs.StringVar(fsync, "fsync", "epoch",
		"with -data-dir, WAL flush policy: epoch (fsync every record) or group (grants wait for one flush shared by every epoch closed meanwhile)")
	fs.IntVar(&cfg.snapshotEvery, "snapshot-every", 4096,
		"with -data-dir, checkpoint a shard after this many WAL records")
	fs.BoolVar(&cfg.replicate, "replicate", false,
		"join a replication cluster: this daemon leads or follows per election (requires -peers, -node-id, -data-dir)")
	fs.StringVar(peers, "peers", "",
		"with -replicate, every cluster member as replAddr=clientAddr, comma-separated, in an order shared verbatim by all members")
	fs.IntVar(&cfg.nodeID, "node-id", 0, "with -replicate, this member's index into -peers")
	fs.DurationVar(&cfg.electionTimeout, "election-timeout", 500*time.Millisecond,
		"with -replicate, follower patience before campaigning (heartbeats flow at a fifth of it)")
	fs.IntVar(&cfg.retainRecords, "retain-records", 0,
		"with -replicate, cap the leader's replication-record backlog; laggards past it re-attach via snapshot (0 = default)")
	return fs
}

// parseFlags parses args into a validated config.
func parseFlags(args []string) (*config, error) {
	cfg := &config{}
	var fsync, peers string
	fs := newFlagSet(cfg, &fsync, &peers)
	if err := fs.Parse(args); err != nil {
		// The FlagSet has already reported the problem (or printed the
		// -h usage) to stderr; mark it so main does not repeat it.
		return nil, errors.Join(errFlagsReported, err)
	}
	switch {
	case cfg.listen == "":
		return nil, fmt.Errorf("blnamed: -listen is required")
	case cfg.shards < 1:
		return nil, fmt.Errorf("blnamed: -shards must be >= 1, got %d", cfg.shards)
	case cfg.shardCap < 1:
		return nil, fmt.Errorf("blnamed: -shard-cap must be >= 1, got %d", cfg.shardCap)
	case cfg.journalLimit < 0:
		return nil, fmt.Errorf("blnamed: -journal-limit must be >= 0, got %d", cfg.journalLimit)
	case cfg.maxOutstanding < 0:
		return nil, fmt.Errorf("blnamed: -max-outstanding must be >= 0, got %d", cfg.maxOutstanding)
	case cfg.maxConnQueue < 0:
		return nil, fmt.Errorf("blnamed: -max-conn-queue must be >= 0, got %d", cfg.maxConnQueue)
	case cfg.snapshotEvery < 1:
		return nil, fmt.Errorf("blnamed: -snapshot-every must be >= 1, got %d", cfg.snapshotEvery)
	}
	switch fsync {
	case "epoch":
		cfg.fsyncMode = namesvc.FsyncPerEpoch
	case "group":
		cfg.fsyncMode = namesvc.FsyncGroup
	default:
		return nil, fmt.Errorf("blnamed: -fsync must be epoch or group, got %q", fsync)
	}
	if cfg.replicate {
		if peers == "" {
			return nil, fmt.Errorf("blnamed: -replicate requires -peers")
		}
		if cfg.dataDir == "" {
			return nil, fmt.Errorf("blnamed: -replicate requires -data-dir (election state and the WAL must survive restarts)")
		}
		for _, member := range strings.Split(peers, ",") {
			replAddr, clientAddr, ok := strings.Cut(member, "=")
			if !ok || replAddr == "" || clientAddr == "" {
				return nil, fmt.Errorf("blnamed: -peers member %q is not replAddr=clientAddr", member)
			}
			cfg.peers = append(cfg.peers, repl.PeerSpec{ReplAddr: replAddr, ClientAddr: clientAddr})
		}
		if cfg.nodeID < 0 || cfg.nodeID >= len(cfg.peers) {
			return nil, fmt.Errorf("blnamed: -node-id %d outside -peers (0..%d)", cfg.nodeID, len(cfg.peers)-1)
		}
		if cfg.electionTimeout <= 0 {
			return nil, fmt.Errorf("blnamed: -election-timeout must be positive, got %v", cfg.electionTimeout)
		}
		if cfg.retainRecords < 0 {
			return nil, fmt.Errorf("blnamed: -retain-records must be >= 0, got %d", cfg.retainRecords)
		}
	} else if peers != "" {
		return nil, fmt.Errorf("blnamed: -peers requires -replicate")
	}
	return cfg, nil
}

// warnJournal surfaces the unbounded-journal footgun at startup rather
// than letting a long-lived daemon discover it as memory growth.
func warnJournal(cfg *config) {
	if !cfg.journal || cfg.journalLimit != 0 {
		return
	}
	if cfg.dataDir != "" {
		fmt.Fprintf(os.Stderr,
			"blnamed: warning: -journal-limit 0 (unbounded) with durability enabled; "+
				"auto-capping the in-memory journal at %d entries per shard — the WAL under "+
				"%s already holds the complete history\n", namesvc.AutoJournalLimit, cfg.dataDir)
		return
	}
	fmt.Fprintln(os.Stderr,
		"blnamed: warning: -journal-limit 0 retains every journal entry forever; "+
			"memory grows without bound — intended for bounded runs only")
}

// build assembles the service, the optional replication node, and the
// server from a config, recovering from -data-dir when durability is
// enabled.
func build(cfg *config) (*namesvc.Server, *namesvc.Service, *repl.Node, error) {
	svcCfg := namesvc.Config{
		Shards:       cfg.shards,
		ShardCap:     cfg.shardCap,
		Seed:         cfg.seed,
		MaxBatch:     cfg.maxBatch,
		Journal:      cfg.journal,
		JournalLimit: cfg.journalLimit,
	}
	if cfg.dataDir != "" {
		sinks, err := durable.ShardSinks(cfg.dataDir, cfg.shards)
		if err != nil {
			return nil, nil, nil, err
		}
		svcCfg.Durable = &namesvc.Durability{
			Sinks:         sinks,
			Fsync:         cfg.fsyncMode,
			SnapshotEvery: cfg.snapshotEvery,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "blnamed: "+format+"\n", args...)
			},
		}
	}
	svc, err := namesvc.Open(svcCfg)
	if err != nil {
		return nil, nil, nil, err
	}
	var node *repl.Node
	if cfg.replicate {
		node, err = repl.Start(repl.Config{
			NodeID:          cfg.nodeID,
			Peers:           cfg.peers,
			Service:         svc,
			MetaPath:        filepath.Join(cfg.dataDir, "repl-meta"),
			ElectionTimeout: cfg.electionTimeout,
			RetainRecords:   cfg.retainRecords,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "blnamed: "+format+"\n", args...)
			},
		})
		if err != nil {
			svc.Close()
			return nil, nil, nil, err
		}
	}
	scfg := namesvc.ServerConfig{
		Service:        svc,
		IOTimeout:      cfg.timeout,
		MaxOutstanding: cfg.maxOutstanding,
		MaxConnQueue:   cfg.maxConnQueue,
		ManualEpochs:   cfg.manualEpochs,
	}
	if node != nil {
		// Replication is the commit rule: writes only on the leader,
		// grants only after a quorum holds the records behind them.
		scfg.Gate = node
	}
	if !cfg.quiet {
		scfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "blnamed: "+format+"\n", args...)
		}
	}
	srv, err := namesvc.NewServer(scfg)
	if err != nil {
		if node != nil {
			node.Close()
		}
		svc.Close()
		return nil, nil, nil, err
	}
	if node != nil {
		node.SetServer(srv)
	}
	return srv, svc, node, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		if !errors.Is(err, errFlagsReported) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
	warnJournal(cfg)
	srv, svc, node, err := build(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blnamed: %v\n", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blnamed: %v\n", err)
		os.Exit(1)
	}
	durability := "volatile"
	if cfg.dataDir != "" {
		durability = fmt.Sprintf("durable at %s, fsync %v", cfg.dataDir, cfg.fsyncMode)
		for i := 0; i < svc.Shards(); i++ {
			fmt.Fprintf(os.Stderr, "blnamed: shard %d: recovered at epoch %d, digest %016x\n",
				i, svc.ShardEpoch(i), svc.ShardDigest(i))
		}
	}
	if node != nil {
		durability += fmt.Sprintf(", replicating as node %d of %d", cfg.nodeID, len(cfg.peers))
	}
	fmt.Printf("blnamed: serving %d shard(s) x %d names on %s (runner %s, seed %d, %s)\n",
		cfg.shards, cfg.shardCap, ln.Addr(), namesvc.CohortRunner{}.Name(), cfg.seed, durability)

	// SIGINT/SIGTERM drain: stop accepting, tear down connections, write
	// the final checkpoint, exit 0.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		ln.Close()
	}()

	err = srv.Serve(ln)
	ln.Close()
	srv.Close()
	if node != nil {
		// The drain report names the role and the last committed stream
		// index so an operator can tell at a glance whether this replica
		// was the leader and how far the cluster had acknowledged.
		role, term, commit := node.Status()
		node.Close()
		fmt.Fprintf(os.Stderr, "blnamed: replication: drained as %s of term %d, committed through record %d\n",
			role, term, commit)
	}
	if cerr := svc.Close(); cerr != nil {
		fmt.Fprintf(os.Stderr, "blnamed: final checkpoint: %v\n", cerr)
		if err == nil {
			err = cerr
		}
	} else if cfg.dataDir != "" {
		for i := 0; i < svc.Shards(); i++ {
			fmt.Fprintf(os.Stderr, "blnamed: shard %d: final checkpoint at epoch %d, digest %016x\n",
				i, svc.ShardEpoch(i), svc.ShardDigest(i))
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "blnamed: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("blnamed: shut down cleanly")
}
