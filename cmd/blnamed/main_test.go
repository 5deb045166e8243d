package main

import (
	"errors"
	"flag"
	"net"
	"strings"
	"testing"
	"time"

	"ballsintoleaves/internal/namesvc"
)

func TestParseFlagsValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		args []string
	}{
		{"missing listen", nil},
		{"unknown flag", []string{"-listen", ":0", "-runner", "transport"}},
		{"removed batching window", []string{"-listen", ":0", "-epoch", "1ms"}},
		{"zero shards", []string{"-listen", ":0", "-shards", "0"}},
		{"zero shard-cap", []string{"-listen", ":0", "-shard-cap", "0"}},
		{"negative journal-limit", []string{"-listen", ":0", "-journal-limit", "-1"}},
		{"negative max-outstanding", []string{"-listen", ":0", "-max-outstanding", "-1"}},
		{"negative max-conn-queue", []string{"-listen", ":0", "-max-conn-queue", "-1"}},
		{"zero snapshot-every", []string{"-listen", ":0", "-snapshot-every", "0"}},
		{"bad fsync", []string{"-listen", ":0", "-fsync", "sometimes"}},
		{"negative fsync interval", []string{"-listen", ":0", "-fsync", "-5ms"}},
		{"replicate without peers", []string{"-listen", ":0", "-replicate", "-data-dir", "/tmp/x"}},
		{"replicate without data-dir", []string{"-listen", ":0", "-replicate",
			"-peers", "a:1=a:2,b:1=b:2,c:1=c:2"}},
		{"malformed peers member", []string{"-listen", ":0", "-replicate", "-data-dir", "/tmp/x",
			"-peers", "a:1=a:2,b:1"}},
		{"node-id outside peers", []string{"-listen", ":0", "-replicate", "-data-dir", "/tmp/x",
			"-peers", "a:1=a:2,b:1=b:2,c:1=c:2", "-node-id", "3"}},
		{"zero election timeout", []string{"-listen", ":0", "-replicate", "-data-dir", "/tmp/x",
			"-peers", "a:1=a:2,b:1=b:2,c:1=c:2", "-election-timeout", "0s"}},
		{"peers without replicate", []string{"-listen", ":0", "-peers", "a:1=a:2"}},
	}
	for _, tc := range cases {
		if _, err := parseFlags(tc.args); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The policies that acknowledged a grant before its record was on disk
	// are gone; the rejection names the two that remain.
	for _, arg := range []string{"off", "100ms"} {
		_, err := parseFlags([]string{"-listen", ":0", "-fsync", arg})
		if err == nil || !strings.Contains(err.Error(), "epoch") || !strings.Contains(err.Error(), "group") {
			t.Errorf("-fsync %s: err %v, want a rejection naming epoch and group", arg, err)
		}
	}
	if _, err := parseFlags([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h err = %v", err)
	}
	cfg, err := parseFlags([]string{"-listen", "127.0.0.1:0", "-shards", "4", "-shard-cap", "64",
		"-seed", "9", "-quiet",
		"-journal", "-journal-limit", "512",
		"-max-outstanding", "128", "-max-conn-queue", "65536"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.shards != 4 || cfg.shardCap != 64 || cfg.seed != 9 || !cfg.quiet ||
		!cfg.journal || cfg.journalLimit != 512 ||
		cfg.maxOutstanding != 128 || cfg.maxConnQueue != 65536 {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.fsyncMode != namesvc.FsyncPerEpoch || cfg.dataDir != "" {
		t.Fatalf("default durability cfg = %+v", cfg)
	}
	cfg, err = parseFlags([]string{"-listen", ":0", "-data-dir", "/tmp/x",
		"-fsync", "group", "-snapshot-every", "128"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.dataDir != "/tmp/x" || cfg.fsyncMode != namesvc.FsyncGroup || cfg.snapshotEvery != 128 {
		t.Fatalf("durable cfg = %+v", cfg)
	}
	cfg, err = parseFlags([]string{"-listen", "127.0.0.1:4801", "-data-dir", "/tmp/x",
		"-fsync", "group", "-replicate", "-node-id", "1",
		"-peers", "a:1=a:2,b:1=b:2,c:1=c:2", "-election-timeout", "250ms"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.replicate || cfg.nodeID != 1 || len(cfg.peers) != 3 ||
		cfg.peers[1].ReplAddr != "b:1" || cfg.peers[1].ClientAddr != "b:2" ||
		cfg.fsyncMode != namesvc.FsyncGroup || cfg.electionTimeout != 250*time.Millisecond {
		t.Fatalf("replicated cfg = %+v", cfg)
	}

	// The -fsync usage names every mode parseFlags accepts.
	usage := newFlagSet(&config{}, new(string), new(string)).Lookup("fsync").Usage
	for arg, want := range map[string]namesvc.FsyncMode{
		"epoch": namesvc.FsyncPerEpoch, "group": namesvc.FsyncGroup,
	} {
		cfg, err := parseFlags([]string{"-listen", ":0", "-fsync", arg})
		if err != nil || cfg.fsyncMode != want {
			t.Fatalf("-fsync %s: cfg %+v, err %v", arg, cfg, err)
		}
		if !strings.Contains(usage, want.String()) {
			t.Errorf("-fsync usage %q does not name mode %v", usage, want)
		}
	}
}

// TestDaemonEndToEnd drives a built-from-flags daemon over a real socket:
// multiple epochs of churn, uniqueness, reuse only after release, and a
// mid-epoch disconnect absorbed without leaking capacity. A single shard
// keeps capacity reasoning global (an acquire blocks while its hash shard
// is full, by design); the shard-aware multi-shard socket scenarios live in
// internal/namesvc's server tests.
func TestDaemonEndToEnd(t *testing.T) {
	t.Parallel()
	cfg, err := parseFlags([]string{"-listen", "127.0.0.1:0", "-shards", "1", "-shard-cap", "16",
		"-seed", "12", "-quiet"})
	if err != nil {
		t.Fatal(err)
	}
	srv, svc, _, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		ln.Close()
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	c, err := namesvc.Dial(ln.Addr().String(), namesvc.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	active := map[int]bool{}
	everHeld := map[int]bool{}
	released := map[int]bool{}
	var names []int
	for client := uint64(1); client <= 12; client++ {
		g, err := c.AcquireSync(client)
		if err != nil {
			t.Fatal(err)
		}
		if active[g.Name] {
			t.Fatalf("duplicate grant of %d", g.Name)
		}
		active[g.Name] = true
		everHeld[g.Name] = true
		names = append(names, g.Name)
	}
	for _, name := range names[:6] {
		if err := c.ReleaseSync(name); err != nil {
			t.Fatal(err)
		}
		delete(active, name)
		released[name] = true
	}
	for client := uint64(50); client <= 55; client++ {
		g, err := c.AcquireSync(client)
		if err != nil {
			t.Fatal(err)
		}
		if active[g.Name] {
			t.Fatalf("duplicate grant of %d", g.Name)
		}
		if everHeld[g.Name] && !released[g.Name] {
			t.Fatalf("name %d reused without release", g.Name)
		}
		active[g.Name] = true
	}

	// A second connection with a pending acquire dies; capacity may not
	// leak and nothing may be double-granted afterwards.
	c2, err := namesvc.Dial(ln.Addr().String(), namesvc.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Acquire(999, func(namesvc.Grant, error) {}); err != nil {
		t.Fatal(err)
	}
	if err := c2.Flush(); err != nil {
		t.Fatal(err)
	}
	c2.Close()

	st, err := c.StatsSync()
	if err != nil {
		t.Fatal(err)
	}
	if st.Epochs < 3 {
		t.Fatalf("only %d epochs", st.Epochs)
	}
	// The dead connection's request is either cancelled or its grant was
	// absorbed; wait until neither pending nor holding.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err = c.StatsSync()
		if err != nil {
			t.Fatal(err)
		}
		if st.Pending == 0 && st.Assigned == len(active) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead connection leaked capacity: %+v with %d held here", st, len(active))
		}
		time.Sleep(2 * time.Millisecond)
	}
}
