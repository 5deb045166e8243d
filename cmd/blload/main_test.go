package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"ballsintoleaves/internal/faultnet"
	"ballsintoleaves/internal/namesvc"
)

func TestParseFlagsValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		args []string
	}{
		{"missing connect", nil},
		{"zero conns", []string{"-connect", "x:1", "-conns", "0"}},
		{"zero outstanding", []string{"-connect", "x:1", "-outstanding", "0"}},
		{"zero workers", []string{"-connect", "x:1", "-workers", "0"}},
		{"zero duration", []string{"-connect", "x:1", "-duration", "0s"}},
		{"negative warmup", []string{"-connect", "x:1", "-warmup", "-1s"}},
		{"negative rate", []string{"-connect", "x:1", "-rate", "-5"}},
		{"zero op-timeout", []string{"-connect", "x:1", "-session", "-op-timeout", "0s"}},
		{"address list without -session", []string{"-connect", "x:1,y:2"}},
	}
	for _, tc := range cases {
		if _, err := parseFlags(tc.args); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := parseFlags([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h err = %v", err)
	}
	cfg, err := parseFlags([]string{"-connect", "h:1", "-conns", "2", "-outstanding", "8",
		"-duration", "250ms", "-rate", "1000", "-warmup", "100ms", "-workers", "3", "-json"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.conns != 2 || cfg.outstanding != 8 || cfg.duration != 250*time.Millisecond ||
		cfg.rate != 1000 || cfg.warmup != 100*time.Millisecond || cfg.workers != 3 || !cfg.json {
		t.Fatalf("cfg = %+v", cfg)
	}
	cfg, err = parseFlags([]string{"-connect", "a:1,b:2,c:3", "-session", "-op-timeout", "2s",
		"-duration", "250ms"})
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.session || cfg.opTimeout != 2*time.Second || cfg.connect != "a:1,b:2,c:3" {
		t.Fatalf("session cfg = %+v", cfg)
	}
}

// startDaemon brings up an in-process namesvc server for load runs.
func startDaemon(t *testing.T) string {
	t.Helper()
	svc, err := namesvc.New(namesvc.Config{Shards: 2, ShardCap: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := namesvc.NewServer(namesvc.ServerConfig{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ln.Close()
		srv.Close()
	})
	return ln.Addr().String()
}

// TestClosedLoopRun drives a short closed-loop burst and checks the
// accounting: progress, zero duplicates, zero errors, latency recorded.
func TestClosedLoopRun(t *testing.T) {
	t.Parallel()
	addr := startDaemon(t)
	cfg, err := parseFlags([]string{"-connect", addr, "-conns", "2", "-outstanding", "16",
		"-duration", "300ms"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.acquires == 0 {
		t.Fatal("no acquires completed")
	}
	if rep.duplicates != 0 || rep.errors != 0 {
		t.Fatalf("duplicates=%d errors=%d", rep.duplicates, rep.errors)
	}
	if rep.lat.Count() != rep.acquires {
		t.Fatalf("recorded %d latencies for %d acquires", rep.lat.Count(), rep.acquires)
	}
	if rep.lat.P99() <= 0 {
		t.Fatal("p99 latency not recorded")
	}
	if rep.svc.Epochs == 0 || rep.svc.Grants == 0 {
		t.Fatalf("server stats not collected: %+v", rep.svc)
	}
	// The JSON artifact rendering must round-trip as valid JSON with the
	// headline fields populated.
	var buf bytes.Buffer
	if err := rep.writeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if decoded["acquires"].(float64) == 0 || decoded["acquires_per_s"].(float64) <= 0 {
		t.Fatalf("artifact missing throughput: %s", buf.String())
	}
}

// TestClosedLoopWarmupAndWorkers drives the completion-worker path with a
// warmup window: warmup traffic flows (the server sees more grants than the
// report counts) but is excluded from the histogram and counters, and the
// JSON artifact records the warmup and worker configuration.
func TestClosedLoopWarmupAndWorkers(t *testing.T) {
	t.Parallel()
	addr := startDaemon(t)
	cfg, err := parseFlags([]string{"-connect", addr, "-conns", "2", "-outstanding", "16",
		"-workers", "2", "-warmup", "150ms", "-duration", "300ms"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.acquires == 0 || rep.duplicates != 0 || rep.errors != 0 {
		t.Fatalf("acquires=%d duplicates=%d errors=%d", rep.acquires, rep.duplicates, rep.errors)
	}
	if rep.lat.Count() != rep.acquires {
		t.Fatalf("recorded %d latencies for %d measured acquires", rep.lat.Count(), rep.acquires)
	}
	// The warmup traffic reached the server but stayed out of the report.
	if rep.svc.Grants <= rep.acquires {
		t.Fatalf("server granted %d, report measured %d — warmup traffic unaccounted",
			rep.svc.Grants, rep.acquires)
	}
	var buf bytes.Buffer
	if err := rep.writeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if decoded["warmup_ms"].(float64) != 150 || decoded["workers"].(float64) != 2 ||
		decoded["conns"].(float64) != 2 || decoded["outstanding"].(float64) != 16 {
		t.Fatalf("artifact missing run configuration: %s", buf.String())
	}
}

// TestSessionModeRun drives the closed loop through self-healing sessions
// against a healthy daemon: same accounting guarantees as client mode,
// and no reconnects or timeouts on a fault-free link.
func TestSessionModeRun(t *testing.T) {
	t.Parallel()
	addr := startDaemon(t)
	cfg, err := parseFlags([]string{"-connect", addr, "-session", "-conns", "2",
		"-outstanding", "16", "-duration", "300ms"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.acquires == 0 {
		t.Fatal("no acquires completed")
	}
	if rep.duplicates != 0 || rep.errors != 0 || rep.timeouts != 0 || rep.lost != 0 {
		t.Fatalf("duplicates=%d errors=%d timeouts=%d lost=%d",
			rep.duplicates, rep.errors, rep.timeouts, rep.lost)
	}
	if rep.sess.Reconnects != 0 {
		t.Fatalf("session counters %+v on a fault-free link", rep.sess)
	}
	var buf bytes.Buffer
	if err := rep.writeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
}

// TestSessionModeRidesThroughReset resets every connection mid-run; the
// sessions must self-heal — the run finishes with progress, zero
// duplicates, zero hard errors, and at least one reconnect on record.
func TestSessionModeRidesThroughReset(t *testing.T) {
	t.Parallel()
	addr := startDaemon(t)
	link := faultnet.NewLink("load")
	p, err := faultnet.NewProxy("127.0.0.1:0", addr, link)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	cfg, err := parseFlags([]string{"-connect", p.Addr(), "-session", "-conns", "2",
		"-outstanding", "8", "-duration", "900ms", "-op-timeout", "300ms", "-timeout", "2s"})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(300 * time.Millisecond)
		link.ResetConns()
	}()
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.acquires == 0 {
		t.Fatal("no acquires completed")
	}
	if rep.duplicates != 0 || rep.errors != 0 {
		t.Fatalf("duplicates=%d errors=%d riding through a reset", rep.duplicates, rep.errors)
	}
	if rep.sess.Reconnects == 0 {
		t.Fatalf("session counters %+v: reset survived without a recorded reconnect", rep.sess)
	}
}

// TestOpenLoopRun covers the -rate pacer path.
func TestOpenLoopRun(t *testing.T) {
	t.Parallel()
	addr := startDaemon(t)
	cfg, err := parseFlags([]string{"-connect", addr, "-conns", "1", "-outstanding", "32",
		"-duration", "200ms", "-rate", "2000"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.acquires == 0 || rep.duplicates != 0 || rep.errors != 0 {
		t.Fatalf("acquires=%d duplicates=%d errors=%d", rep.acquires, rep.duplicates, rep.errors)
	}
	// Open loop may shed, but never more offers than the pacer made.
	if rep.acquires+rep.shed > 2000 {
		t.Fatalf("offered %d in 200ms at rate 2000/s", rep.acquires+rep.shed)
	}
}

// TestErrorClassesReported checks that counted errors carry their causes to
// both renderings of the report: reject codes by name, I/O deadlines as
// "timeout", vanished connections as "closed"; session op timeouts and
// unmeasured failures stay out of the error count, as before.
func TestErrorClassesReported(t *testing.T) {
	t.Parallel()
	sh := &shared{}
	notHeld := &namesvc.RejectError{Code: namesvc.RejectNotHeld, Msg: "name 7 is not held by this connection"}
	for i := 0; i < 7; i++ {
		sh.countFailure(notHeld, true)
	}
	sh.countFailure(fmt.Errorf("release: %w", &namesvc.RejectError{Code: namesvc.RejectBusy}), true)
	sh.countFailure(namesvc.ErrSessionClosed, true)
	sh.countFailure(&net.OpError{Op: "read", Err: os.ErrDeadlineExceeded}, true)
	sh.countFailure(errors.New("something else"), true)
	sh.countFailure(namesvc.ErrOpTimeout, true) // a session timeout, not an error
	sh.countFailure(notHeld, false)             // outside the measurement window
	if got := sh.timeouts.Load(); got != 1 {
		t.Fatalf("counted %d op timeouts, want 1", got)
	}

	rep := &report{cfg: &config{}, elapsed: time.Second, errors: 11, errClasses: sh.classes}
	var text bytes.Buffer
	rep.print(&text)
	if want := "duplicates: 0, errors: 11 (busy×1, closed×1, not-held×7, other×1, timeout×1)\n"; !strings.HasSuffix(text.String(), want) {
		t.Fatalf("summary ends %q, want %q", text.String(), want)
	}
	var buf bytes.Buffer
	if err := rep.writeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Errors  uint64            `json:"errors"`
		Classes map[string]uint64 `json:"error_classes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{"not-held": 7, "busy": 1, "closed": 1, "timeout": 1, "other": 1}
	if decoded.Errors != 11 || !reflect.DeepEqual(decoded.Classes, want) {
		t.Fatalf("artifact has errors=%d error_classes=%v, want 11 and %v", decoded.Errors, decoded.Classes, want)
	}

	// A clean run keeps the line CI greps for and omits the JSON field.
	clean := &report{cfg: &config{}, elapsed: time.Second}
	text.Reset()
	clean.print(&text)
	if !strings.HasSuffix(text.String(), "duplicates: 0, errors: 0\n") {
		t.Fatalf("clean summary ends %q", text.String())
	}
	buf.Reset()
	if err := clean.writeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("error_classes")) {
		t.Fatalf("clean artifact carries error_classes: %s", buf.String())
	}
}
