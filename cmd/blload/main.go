// Command blload is the load generator for the blnamed name-allocation
// daemon: it drives pipelined acquire/release traffic over real sockets and
// reports sustained throughput and the acquire-latency distribution
// (p50/p90/p99/p999) from a mergeable log-linear histogram
// (internal/stats.Histogram).
//
// Closed loop (default): each of -conns connections keeps -outstanding
// acquires in flight; every grant is released immediately and replaced, so
// offered load tracks service capacity. Completions are handed off to
// -workers goroutines per connection, so releases and follow-up acquires
// are issued off the client's read goroutine and a single connection can
// saturate the batched server front end:
//
//	blload -connect 127.0.0.1:4720 -conns 4 -outstanding 64 -workers 2 -duration 5s
//
// Open loop: -rate offers a fixed number of acquires per second across the
// connections regardless of completions (bounded by -outstanding per
// connection; acquires shed at the cap are reported, so coordinated
// omission is visible rather than hidden):
//
//	blload -connect 127.0.0.1:4720 -conns 4 -rate 50000 -duration 10s
//
// -warmup runs the same traffic for the given duration before measurement
// begins: operations issued during warmup are excluded from the histogram,
// the throughput window, and the duplicate/error accounting, so cold
// caches, pool growth, and epoch-size ramp-up do not pollute the report.
//
// -session switches every connection from a raw client to a self-healing
// namesvc.Session: per-op timeouts, reconnect with backoff and jitter,
// automatic leader-redirect following, and reclaim of held grants after a
// failover. -connect may then be a comma-separated list of cluster
// members, and the load rides through leader kills and partitions with no
// manual re-dial; op timeouts during a fault are reported separately and
// do not fail the run:
//
//	blload -session -connect 127.0.0.1:4750,127.0.0.1:4751,127.0.0.1:4752 \
//	    -op-timeout 2s -duration 30s
//
// Every grant is checked against one process-wide grantcheck.Owners: a
// name granted while an earlier grant of it is still held is a suspect,
// and a suspect is a duplicate unless the session reported that earlier
// grant revoked. A grant is held from acknowledgement until its release is
// submitted (or its revocation reported), so the check spans session
// reconnects and the zero-duplicate assertion stays meaningful under
// chaos. The final report's "duplicates: 0" line is what CI's
// end-to-end smoke greps for; any duplicate or error makes blload exit 1.
// Errors are reported with their causes — "errors: 7 (not-held×7)", and
// error_classes in the -json artifact — so a failed run names what failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/namesvc/grantcheck"
	"ballsintoleaves/internal/stats"
)

// errFlagsReported marks parse failures the FlagSet already printed.
var errFlagsReported = errors.New("flag parsing failed")

// config is the parsed and validated command line.
type config struct {
	connect     string
	conns       int
	outstanding int
	workers     int
	duration    time.Duration
	warmup      time.Duration
	rate        int
	timeout     time.Duration
	session     bool
	opTimeout   time.Duration
	json        bool
	probe       bool
}

// parseFlags parses args into a validated config.
func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("blload", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	cfg := &config{}
	fs.StringVar(&cfg.connect, "connect", "", "blnamed address to connect to (required)")
	fs.IntVar(&cfg.conns, "conns", 4, "concurrent connections")
	fs.IntVar(&cfg.outstanding, "outstanding", 64, "in-flight acquires per connection")
	fs.IntVar(&cfg.workers, "workers", 1,
		"completion-worker goroutines per connection issuing releases and chained acquires")
	fs.DurationVar(&cfg.duration, "duration", 5*time.Second, "measurement duration")
	fs.DurationVar(&cfg.warmup, "warmup", 0,
		"run this long before measuring; warmup ops are excluded from the histogram and duplicate accounting")
	fs.IntVar(&cfg.rate, "rate", 0, "open-loop offered acquires/s across all connections (0 = closed loop)")
	fs.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "dial and write timeout")
	fs.BoolVar(&cfg.session, "session", false,
		"self-healing session mode: reconnect with backoff, follow leader redirects, and reclaim held grants after failover; -connect may be a comma-separated member list")
	fs.DurationVar(&cfg.opTimeout, "op-timeout", 10*time.Second,
		"session mode: per-operation deadline; timed-out ops are reported separately and do not fail the run")
	fs.BoolVar(&cfg.json, "json", false,
		"emit the report as one JSON object on stdout (for BENCH_*.json artifacts), after the text report on stderr")
	fs.BoolVar(&cfg.probe, "probe", false,
		"readiness probe: dial once, complete the hello/welcome handshake, exit 0 on success and 1 on failure (for CI startup polling; no load is generated)")
	if err := fs.Parse(args); err != nil {
		// The FlagSet has already reported the problem (or printed the
		// -h usage) to stderr; mark it so main does not repeat it.
		return nil, errors.Join(errFlagsReported, err)
	}
	switch {
	case cfg.connect == "":
		return nil, fmt.Errorf("blload: -connect is required")
	case cfg.conns < 1:
		return nil, fmt.Errorf("blload: -conns must be >= 1, got %d", cfg.conns)
	case cfg.outstanding < 1:
		return nil, fmt.Errorf("blload: -outstanding must be >= 1, got %d", cfg.outstanding)
	case cfg.workers < 1:
		return nil, fmt.Errorf("blload: -workers must be >= 1, got %d", cfg.workers)
	case cfg.duration <= 0:
		return nil, fmt.Errorf("blload: -duration must be positive, got %v", cfg.duration)
	case cfg.warmup < 0:
		return nil, fmt.Errorf("blload: -warmup must be >= 0, got %v", cfg.warmup)
	case cfg.rate < 0:
		return nil, fmt.Errorf("blload: -rate must be >= 0, got %d", cfg.rate)
	case cfg.opTimeout <= 0:
		return nil, fmt.Errorf("blload: -op-timeout must be positive, got %v", cfg.opTimeout)
	case !cfg.session && strings.Contains(cfg.connect, ","):
		return nil, fmt.Errorf("blload: a -connect address list requires -session")
	}
	return cfg, nil
}

// report is the outcome of one load run.
type report struct {
	cfg        *config
	elapsed    time.Duration
	acquires   uint64
	releases   uint64
	shed       uint64
	duplicates uint64
	errors     uint64
	errClasses map[string]uint64       // errors split by errorClass
	timeouts   uint64                  // session ops that hit -op-timeout
	lost       uint64                  // grants the server revoked across a reconnect
	sess       namesvc.SessionCounters // aggregated across connections
	lat        stats.Histogram
	svc        namesvc.Stats
}

// print renders the human-readable report.
func (r *report) print(w io.Writer) {
	secs := r.elapsed.Seconds()
	fmt.Fprintf(w, "ran %.2fs", secs)
	if r.cfg.warmup > 0 {
		fmt.Fprintf(w, " (after %v warmup)", r.cfg.warmup)
	}
	fmt.Fprintf(w, ": %d acquires (%.1f acquires/s), %d releases",
		r.acquires, float64(r.acquires)/secs, r.releases)
	if r.shed > 0 {
		fmt.Fprintf(w, ", %d shed at the in-flight cap", r.shed)
	}
	fmt.Fprintln(w)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	fmt.Fprintf(w, "acquire latency: p50=%.0fµs p90=%.0fµs p99=%.0fµs p999=%.0fµs max=%.0fµs mean=%.0fµs\n",
		us(r.lat.P50()), us(r.lat.P90()), us(r.lat.P99()), us(r.lat.P999()), us(r.lat.Max()), r.lat.Mean()/1e3)
	fmt.Fprintf(w, "server: %d epochs, %d grants, %d releases, %d absorbed, %d assigned, %d free\n",
		r.svc.Epochs, r.svc.Grants, r.svc.Releases, r.svc.Absorbed, r.svc.Assigned, r.svc.Free)
	if r.cfg.session {
		fmt.Fprintf(w, "session: %d reconnects, %d redirects, %d reclaimed, %d lost, %d op timeouts\n",
			r.sess.Reconnects, r.sess.Redirects, r.sess.Reclaimed, r.lost, r.timeouts)
	}
	fmt.Fprintf(w, "duplicates: %d, errors: %d%s\n", r.duplicates, r.errors, r.classSummary())
}

// classSummary renders the error classes for the summary line, by name:
// " (closed×2, not-held×7)", or nothing when there were no errors.
func (r *report) classSummary() string {
	if len(r.errClasses) == 0 {
		return ""
	}
	names := make([]string, 0, len(r.errClasses))
	for name := range r.errClasses {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		names[i] = fmt.Sprintf("%s×%d", name, r.errClasses[name])
	}
	return " (" + strings.Join(names, ", ") + ")"
}

// jsonReport is the machine-readable rendering of one run, the blload
// counterpart of blbench's BENCH_*.json artifact lines.
type jsonReport struct {
	ElapsedMS   int64   `json:"elapsed_ms"`
	WarmupMS    int64   `json:"warmup_ms"`
	Conns       int     `json:"conns"`
	Outstanding int     `json:"outstanding"`
	Workers     int     `json:"workers"`
	Acquires    uint64  `json:"acquires"`
	AcquiresPS  float64 `json:"acquires_per_s"`
	Releases    uint64  `json:"releases"`
	Shed        uint64  `json:"shed,omitempty"`
	Duplicates  uint64  `json:"duplicates"`
	Errors      uint64  `json:"errors"`

	// ErrClasses splits Errors by cause: a server reject's code
	// ("not-held", "busy", ...), "timeout", "closed" or "other".
	ErrClasses map[string]uint64 `json:"error_classes,omitempty"`

	Timeouts    uint64  `json:"op_timeouts,omitempty"`
	Lost        uint64  `json:"grants_lost,omitempty"`
	Reconnects  uint64  `json:"session_reconnects,omitempty"`
	Redirects   uint64  `json:"session_redirects,omitempty"`
	Reclaimed   uint64  `json:"session_reclaimed,omitempty"`
	P50US       float64 `json:"latency_p50_us"`
	P90US       float64 `json:"latency_p90_us"`
	P99US       float64 `json:"latency_p99_us"`
	P999US      float64 `json:"latency_p999_us"`
	MaxUS       float64 `json:"latency_max_us"`
	MeanUS      float64 `json:"latency_mean_us"`
	SvcEpochs   uint64  `json:"server_epochs"`
	SvcGrants   uint64  `json:"server_grants"`
	SvcReleases uint64  `json:"server_releases"`
	SvcAbsorbed uint64  `json:"server_absorbed"`
	SvcAssigned int     `json:"server_assigned"`
	SvcFree     int     `json:"server_free"`
	// Latency is the raw histogram snapshot (non-empty buckets plus exact
	// aggregates), not just the quantiles above: artifacts from separate
	// runs — or from the simulator, which emits the same shape — merge
	// losslessly through stats.FromSnapshot + Histogram.Merge.
	Latency stats.Snapshot `json:"latency_ns"`
}

// writeJSON emits the report as a single JSON object.
func (r *report) writeJSON(w io.Writer) error {
	secs := r.elapsed.Seconds()
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	out := jsonReport{
		ElapsedMS:   r.elapsed.Milliseconds(),
		WarmupMS:    r.cfg.warmup.Milliseconds(),
		Conns:       r.cfg.conns,
		Outstanding: r.cfg.outstanding,
		Workers:     r.cfg.workers,
		Acquires:    r.acquires,
		AcquiresPS:  float64(r.acquires) / secs,
		Releases:    r.releases,
		Shed:        r.shed,
		Duplicates:  r.duplicates,
		Errors:      r.errors,
		ErrClasses:  r.errClasses,
		Timeouts:    r.timeouts,
		Lost:        r.lost,
		Reconnects:  r.sess.Reconnects,
		Redirects:   r.sess.Redirects,
		Reclaimed:   r.sess.Reclaimed,
		P50US:       us(r.lat.P50()),
		P90US:       us(r.lat.P90()),
		P99US:       us(r.lat.P99()),
		P999US:      us(r.lat.P999()),
		MaxUS:       us(r.lat.Max()),
		MeanUS:      r.lat.Mean() / 1e3,
		SvcEpochs:   r.svc.Epochs,
		SvcGrants:   r.svc.Grants,
		SvcReleases: r.svc.Releases,
		SvcAbsorbed: r.svc.Absorbed,
		SvcAssigned: r.svc.Assigned,
		SvcFree:     r.svc.Free,
		Latency:     r.lat.Snapshot(),
	}
	return json.NewEncoder(w).Encode(out)
}

// loadConn is the client surface the load generator drives; it is
// satisfied by both the raw *namesvc.Client and the self-healing
// *namesvc.Session, so every path below is fault-mode-agnostic.
type loadConn interface {
	Acquire(client uint64, cb func(namesvc.Grant, error)) error
	Release(name int, cb func(error)) error
	StatsSync() (namesvc.Stats, error)
	Capacity() int
	Flush() error
	Close() error
	Wait()
}

// worker is one connection's driver. Grant callbacks run on the client's
// read goroutine, which owns the histogram and the acquire counter; in
// closed-loop mode each completion is handed to the connection's worker
// pool, which issues the release and the chained acquire — keeping the read
// goroutine free to drain response bursts while the workers fill the next
// request batch. (A session's callbacks run on its current client's read
// goroutine; reconnects swap that goroutine, but never overlap two.)
type worker struct {
	c        loadConn
	shared   *shared
	lat      stats.Histogram
	acquires uint64 // owned by the read goroutine
	releases atomic.Uint64
	inflight atomic.Int64
	comp     chan completion
	relCB    func(error)   // created once, shared by every release
	done     chan struct{} // closed when stopped and drained
	doneOnce sync.Once
}

// completion is one grant handed from the read goroutine to the worker
// pool, carrying whether its acquire was issued inside the measurement
// window so both halves of the operation are accounted under the same rule.
type completion struct {
	g        namesvc.Grant
	measured bool
}

// shared is the cross-worker state: stop/warm flags, duplicate detection,
// global counters.
type shared struct {
	stop     atomic.Bool
	warm     atomic.Bool // measurement window open; false during warmup
	clientID atomic.Uint64
	owners   *grantcheck.Owners
	classMu  sync.Mutex
	classes  map[string]uint64 // counted errors by errorClass; guarded by classMu
	shed     atomic.Uint64
	timeouts atomic.Uint64
	lost     atomic.Uint64
}

// countFailure classifies one failed operation: a session op that hit its
// deadline is an expected casualty of riding out a fault and is counted
// as a timeout; everything else is an error. Failures outside the
// measurement window, or after the stop flag (in-flight tails cut down by
// teardown), stay uncounted.
func (sh *shared) countFailure(err error, measured bool) {
	if !measured || sh.stop.Load() {
		return
	}
	if errors.Is(err, namesvc.ErrOpTimeout) {
		sh.timeouts.Add(1)
		return
	}
	sh.classMu.Lock()
	if sh.classes == nil {
		sh.classes = make(map[string]uint64)
	}
	sh.classes[errorClass(err)]++
	sh.classMu.Unlock()
}

// errorClass names the cause of a counted error, so a run that ends
// "errors: 7" says which seven: the reject code of a server reject,
// "timeout" for an I/O deadline, "closed" for a connection or client that
// went away, "other" for anything else.
func errorClass(err error) string {
	var rej *namesvc.RejectError
	var netErr net.Error
	switch {
	case errors.As(err, &rej):
		return rej.Code.String()
	case errors.As(err, &netErr) && netErr.Timeout():
		return "timeout"
	case errors.Is(err, namesvc.ErrClientClosed), errors.Is(err, net.ErrClosed), errors.Is(err, io.EOF):
		return "closed"
	default:
		return "other"
	}
}

// start claims one in-flight slot and fires its first acquire.
func (wk *worker) start(chain bool) {
	wk.inflight.Add(1)
	wk.fire(chain)
}

// fire issues one acquire on an already-claimed slot. The grant callback
// validates uniqueness and either retires the slot (open loop, or stopping)
// or hands the completion to the worker pool to release and re-fire.
// Warmup ops — issued before the measurement window opened — keep the
// pipeline hot but stay out of every statistic.
func (wk *worker) fire(chain bool) {
	sh := wk.shared
	client := sh.clientID.Add(1)
	measured := sh.warm.Load()
	t0 := time.Now()
	err := wk.c.Acquire(client, func(g namesvc.Grant, err error) {
		if err != nil {
			// Connection teardown after the run window is the expected way
			// in-flight tails end; only mid-run failures count (split into
			// timeouts and errors by countFailure).
			sh.countFailure(err, measured)
			wk.finish()
			return
		}
		if measured {
			wk.lat.Record(time.Since(t0).Nanoseconds())
			wk.acquires++
		}
		// Ownership is tracked across warmup and measurement (a held name
		// is held regardless of when it was acquired); only measured
		// grants are judged. The grant stays owned until its release is
		// submitted (see release) or the session reports it revoked — in
		// particular across a session reconnect, so a name re-granted
		// while its holder neither released nor lost it is caught as a
		// duplicate. The release names the grant by its client id.
		g.Client = client
		if measured {
			sh.owners.Grant(g.Name, client)
		} else {
			sh.owners.Track(g.Name, client)
		}
		if chain && !sh.stop.Load() {
			wk.comp <- completion{g, measured} // never blocks: cap covers every in-flight slot
			return
		}
		wk.release(g, measured)
		wk.finish()
	})
	if err != nil {
		sh.countFailure(err, measured)
		wk.finish()
	}
}

// release returns one granted name.
func (wk *worker) release(g namesvc.Grant, measured bool) {
	// Mark free before the release frame is sent: once the server
	// processes it the name may be re-granted to any connection, and the
	// detector must already allow it.
	wk.shared.owners.Release(g.Name, g.Client)
	if err := wk.c.Release(g.Name, wk.relCB); err != nil {
		wk.shared.countFailure(err, measured)
		return
	}
	if measured {
		wk.releases.Add(1)
	}
}

// runWorker drains completions: one release plus one chained acquire per
// grant, issued off the read goroutine. Completions are drained in batches:
// once the channel runs dry the worker flushes the requests it just
// buffered (the read goroutine's own idle flush ran before these ops
// existed) and yields, so a saturating worker neither strands a batch in
// the write buffer nor starves the read goroutine on small-core machines.
func (wk *worker) runWorker(wg *sync.WaitGroup) {
	defer wg.Done()
	for cp := range wk.comp {
		for done := false; !done; {
			wk.release(cp.g, cp.measured)
			if wk.shared.stop.Load() {
				wk.finish()
			} else {
				wk.fire(true)
			}
			select {
			case next, ok := <-wk.comp:
				if !ok {
					return
				}
				cp = next
			default:
				done = true
			}
		}
		wk.c.Flush()
		runtime.Gosched()
	}
}

// finish retires one in-flight slot and signals drain completion.
func (wk *worker) finish() {
	if wk.inflight.Add(-1) == 0 && wk.shared.stop.Load() {
		wk.doneOnce.Do(func() { close(wk.done) })
	}
}

// runLoad executes one measurement run.
func runLoad(cfg *config) (*report, error) {
	sh := &shared{}
	sh.warm.Store(cfg.warmup == 0)
	var sessions []*namesvc.Session
	dialConn := func(i int) (loadConn, error) {
		if !cfg.session {
			return namesvc.Dial(cfg.connect, namesvc.ClientConfig{Timeout: cfg.timeout})
		}
		s, err := namesvc.DialSession(namesvc.SessionConfig{
			Addrs:          strings.Split(cfg.connect, ","),
			Client:         namesvc.ClientConfig{Timeout: cfg.timeout},
			OpTimeout:      cfg.opTimeout,
			ConnectTimeout: cfg.timeout,
			Seed:           uint64(i + 1),
			OnGrantLost: func(client uint64, name int) {
				sh.lost.Add(1)
				sh.owners.Revoked(client, name)
			},
		})
		if err != nil {
			return nil, err
		}
		sessions = append(sessions, s)
		return s, nil
	}
	workers := make([]*worker, cfg.conns)
	for i := range workers {
		c, err := dialConn(i)
		if err != nil {
			for _, wk := range workers[:i] {
				wk.c.Close()
			}
			return nil, err
		}
		if sh.owners == nil {
			sh.owners = grantcheck.NewOwners(c.Capacity())
		}
		wk := &worker{c: c, shared: sh,
			comp: make(chan completion, cfg.outstanding),
			done: make(chan struct{})}
		wk.relCB = func(err error) {
			if err != nil {
				sh.countFailure(err, true)
			}
		}
		workers[i] = wk
	}
	defer func() {
		for _, wk := range workers {
			wk.c.Close()
		}
	}()
	var workerWG sync.WaitGroup
	for _, wk := range workers {
		for w := 0; w < cfg.workers; w++ {
			workerWG.Add(1)
			go wk.runWorker(&workerWG)
		}
	}

	start := time.Now()
	var measureStart time.Time
	if cfg.rate == 0 {
		for _, wk := range workers {
			for i := 0; i < cfg.outstanding; i++ {
				wk.start(true)
			}
			wk.c.Flush()
		}
		if cfg.warmup > 0 {
			time.Sleep(cfg.warmup)
			sh.warm.Store(true)
		}
		measureStart = time.Now()
		time.Sleep(cfg.duration)
	} else {
		interval := time.Second / time.Duration(cfg.rate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		deadline := start.Add(cfg.warmup + cfg.duration)
		warmAt := start.Add(cfg.warmup)
		measureStart = warmAt
		next := 0
		for t := time.Now(); t.Before(deadline); t = time.Now() {
			if !sh.warm.Load() && !t.Before(warmAt) {
				sh.warm.Store(true)
			}
			wk := workers[next%len(workers)]
			next++
			if int(wk.inflight.Load()) >= cfg.outstanding {
				if sh.warm.Load() {
					sh.shed.Add(1)
				}
			} else {
				wk.start(false)
			}
			// Pace the offered load; Sleep granularity coarsens very high
			// rates, where bursts of catch-up issues approximate the rate.
			until := start.Add(time.Duration(next) * interval)
			if d := time.Until(until); d > 0 {
				time.Sleep(d)
			}
		}
		sh.warm.Store(true) // degenerate runs: never leave warmup unclosed
	}
	sh.stop.Store(true)
	elapsed := time.Since(measureStart)

	// Drain the in-flight tails so every grant has been released.
	drain := time.After(cfg.timeout)
	for _, wk := range workers {
		if wk.inflight.Load() == 0 {
			continue
		}
		wk.c.Flush()
		select {
		case <-wk.done:
		case <-drain:
		}
	}

	rep := &report{cfg: cfg, elapsed: elapsed}
	// Let the tail releases buffered on other connections reach the server
	// before sampling its counters: poll until Assigned is stable.
	if st, err := workers[0].c.StatsSync(); err == nil {
		for settle := 0; settle < 50; settle++ {
			time.Sleep(10 * time.Millisecond)
			next, err := workers[0].c.StatsSync()
			if err != nil {
				break
			}
			stable := next.Assigned == st.Assigned
			st = next
			if stable {
				break
			}
		}
		rep.svc = st
	}
	// The per-worker histograms and counters are owned by the clients' read
	// goroutines; stop those goroutines (even if the drain timed out with
	// acquires still in flight) before aggregating. The completion workers
	// go last: their channels can only be closed once no read goroutine is
	// left to send on them.
	for _, wk := range workers {
		wk.c.Close()
	}
	for _, wk := range workers {
		wk.c.Wait()
	}
	for _, wk := range workers {
		close(wk.comp)
	}
	workerWG.Wait()
	for _, wk := range workers {
		rep.acquires += wk.acquires
		rep.releases += wk.releases.Load()
		rep.lat.Merge(&wk.lat)
	}
	for _, s := range sessions {
		rep.sess.Add(s.Counters())
	}
	rep.shed = sh.shed.Load()
	rep.duplicates = uint64(len(sh.owners.Duplicates()))
	sh.classMu.Lock()
	rep.errClasses = sh.classes
	sh.classMu.Unlock()
	for _, n := range rep.errClasses {
		rep.errors += n
	}
	rep.timeouts = sh.timeouts.Load()
	rep.lost = sh.lost.Load()
	return rep, nil
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
	if cfg.probe {
		addr, _, _ := strings.Cut(cfg.connect, ",")
		c, err := namesvc.Dial(addr, namesvc.ClientConfig{Timeout: cfg.timeout})
		if err != nil {
			fmt.Fprintf(os.Stderr, "blload: probe: %v\n", err)
			os.Exit(1)
		}
		c.Close()
		return
	}
	rep, err := runLoad(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "blload: %v\n", err)
		os.Exit(1)
	}
	if cfg.json {
		rep.print(os.Stderr)
		if err := rep.writeJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "blload: %v\n", err)
			os.Exit(1)
		}
	} else {
		rep.print(os.Stdout)
	}
	if rep.duplicates > 0 || rep.errors > 0 {
		os.Exit(1)
	}
}
