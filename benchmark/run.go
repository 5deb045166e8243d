package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"ballsintoleaves/internal/namesvc"
	"ballsintoleaves/internal/stats"
)

// measurement is everything one set-up → warm-up → window → teardown pass
// observed.
type measurement struct {
	setup     time.Duration // start to the end of prefill
	wall      time.Duration // the measure window as it actually ran
	load      *load
	series    windowSeries
	tr        *tracer // nil when untraced
	before    namesvc.Stats
	after     namesvc.Stats
	mallocs   uint64    // heap allocations during the window, whole process
	lag       []float64 // follower lag samples, records
	elections uint64    // replication terms started during the run
	recovery  time.Duration
	// problems are the correctness checks that failed; any makes the run
	// incorrect.
	problems []string
}

func (m *measurement) problemf(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// okAcquires is the number of acknowledged acquires in the window.
func (m *measurement) okAcquires() float64 { return float64(m.series.samples) }

// attempted and failed count the window's acquires for the result line:
// errors, rejects and duplicate grants are all failures.
func (m *measurement) attempted() int64 {
	if m.load.w.pacedRate > 0 {
		var n int64
		for _, lc := range m.load.conns {
			n += lc.issued
		}
		return n
	}
	return int64(m.series.samples) + m.load.failed.Load()
}

func (m *measurement) failed() int64 { return m.load.failed.Load() + m.load.dups.Load() }

// setUp starts the cluster, dials and builds the standing population.
func setUp(w workload, cfg runConfig, base time.Time, tr *tracer) (*cluster, *load, error) {
	c, err := startCluster(w, cfg, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("starting %s: %w", w.name, err)
	}
	l, err := dialLoad(w, cfg, base, tr, c)
	if err != nil {
		c.close()
		return nil, nil, fmt.Errorf("dialing %s: %w", w.name, err)
	}
	if err := l.prefill(); err != nil {
		l.close()
		c.close()
		return nil, nil, fmt.Errorf("prefilling %s: %w", w.name, err)
	}
	return c, l, nil
}

// timeSetUp runs one set-up only to time it, then throws it away.
func timeSetUp(w workload, cfg runConfig) (time.Duration, error) {
	start := time.Now()
	c, l, err := setUp(w, cfg, start, nil)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	l.close()
	c.close()
	return d, nil
}

// measure runs one pass of the workload over `windows` measure windows and
// checks its outputs. An error means the pass could not run at all; failed
// correctness checks are returned in measurement.problems.
func measure(w workload, cfg runConfig, windows int, traced bool) (*measurement, error) {
	start := time.Now()
	m := &measurement{}
	if traced {
		m.tr = newTracer(start, serviceShards)
	}
	c, l, err := setUp(w, cfg, start, m.tr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	defer l.close()
	m.setup = time.Since(start)
	m.load = l

	statsConn := l.conns[0].c
	first, err := statsConn.StatsSync()
	if err != nil {
		return nil, fmt.Errorf("stats before the run: %w", err)
	}

	leader := c.nodes[0].svc
	var mem runtime.MemStats
	var lagStop, lagDone chan struct{}
	var on int64
	l.run(windows, func() {
		m.before = leader.Stats()
		runtime.ReadMemStats(&mem)
		m.mallocs = mem.Mallocs
		if traced && w.nodes > 1 {
			lagStop, lagDone = make(chan struct{}), make(chan struct{})
			go m.sampleLag(c, lagStop, lagDone)
		}
		on = l.now()
		if traced {
			m.tr.on.Store(true)
		}
	}, func() {
		if traced {
			m.tr.on.Store(false)
		}
		m.wall = time.Duration(l.now() - on)
		if lagStop != nil {
			close(lagStop)
			<-lagDone
		}
		runtime.ReadMemStats(&mem)
		m.mallocs = mem.Mallocs - m.mallocs
		m.after = leader.Stats()
	})
	m.series = windowsOf(l)

	// Correctness. Every grant was checked against the active-name table as
	// it arrived; now drain the namespace and compare the ledgers.
	if n := l.dups.Load(); n > 0 {
		m.problemf("%d duplicate grants", n)
	}
	if err := l.releaseAll(); err != nil {
		m.problemf("releasing the standing population: %v", err)
	}
	last, err := statsConn.StatsSync()
	if err != nil {
		return nil, fmt.Errorf("stats after the run: %w", err)
	}
	if last.Assigned != 0 || last.Pending != 0 {
		m.problemf("after releasing everything: %d names assigned, %d acquires pending", last.Assigned, last.Pending)
	}
	if last.WALFailures != 0 {
		m.problemf("%d WAL failures: the server degraded to volatile", last.WALFailures)
	}
	if m.elections = last.ReplTerm - first.ReplTerm; m.elections != 0 {
		m.problemf("%d elections during the run (term %d → %d, %s): the run is invalid",
			m.elections, first.ReplTerm, last.ReplTerm, last.ElectionReason)
	}
	if w.nodes > 1 {
		if err := c.waitConverged(); err != nil {
			m.problemf("%v", err)
		}
	}
	l.close()
	closed, err := c.stop()
	if err != nil {
		m.problemf("shutting down: %v", err)
	}
	for i := 1; i < len(closed); i++ {
		if !slices.Equal(closed[i], closed[0]) {
			m.problemf("replica %d closed with digests %x, the leader with %x", i, closed[i], closed[0])
		}
	}
	if w.durable {
		if m.recovery, err = c.recoverAndCompare(closed); err != nil {
			m.problemf("recovery: %v", err)
		}
	}
	return m, nil
}

// sampleLag records, every 100ms, how many records each follower is behind
// the leader.
func (m *measurement) sampleLag(c *cluster, stop, done chan struct{}) {
	defer close(done)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			head := c.nodes[0].svc.Position()
			for _, n := range c.nodes[1:] {
				// A follower sampled after the leader can be ahead of the
				// sample; that is no lag.
				m.lag = append(m.lag, float64(head-min(head, n.svc.Position())))
			}
		}
	}
}

// result is what one workload run reports.
type result struct {
	Workload  string           `json:"workload"`
	Correct   bool             `json:"correct"`
	Problems  []string         `json:"problems,omitempty"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

// absorb adds one pass's counts and failed checks; the run is correct while
// there are neither failures nor problems.
func (r *result) absorb(m *measurement) {
	r.Attempted += m.attempted()
	r.Failed += m.failed()
	r.Problems = append(r.Problems, m.problems...)
	r.Correct = len(r.Problems) == 0 && r.Failed == 0
}

// runEndToEnd is the untraced run: cfg.setups timed set-ups, the first of
// which is measured over cfg.windows windows. The others follow the
// measurement, not the process's start: this box's CPUs run at half speed or
// less for a second after an idle spell, by an amount that differs from run
// to run, and a volatile set-up takes 20 ms.
func runEndToEnd(w workload, cfg runConfig) (*result, error) {
	m, err := measure(w, cfg, cfg.windows, false)
	if err != nil {
		return nil, err
	}
	setups := []float64{m.setup.Seconds()}
	for i := 1; i < cfg.setups; i++ {
		d, err := timeSetUp(w, cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	r := &result{Workload: w.name, EndToEnd: map[string]value{}}
	r.absorb(m)
	for _, d := range endToEndDefs {
		switch d.name {
		case "setup_s":
			r.EndToEnd[d.name] = summarize(d, setups, len(setups))
		case "acquires_per_s":
			r.EndToEnd[d.name] = summarize(d, m.series.rate, m.series.samples)
		case "acquire_p50_us":
			r.EndToEnd[d.name] = summarize(d, m.series.p50us, m.series.samples)
		case "acquire_p95_us":
			r.EndToEnd[d.name] = summarize(d, m.series.p95us, m.series.samples)
		}
	}
	return r, nil
}

// runPerLayer is the traced run. It measures the workload twice over half
// the windows each — first untraced, then with the decorators installed —
// so the layer numbers come with the overhead of taking them.
func runPerLayer(w workload, cfg runConfig, windows int) (*result, error) {
	half := max(1, windows/2)
	plain, err := measure(w, cfg, half, false)
	if err != nil {
		return nil, err
	}
	traced, err := measure(w, cfg, half, true)
	if err != nil {
		return nil, err
	}
	r := &result{Workload: w.name}
	r.absorb(plain)
	r.absorb(traced)
	if r.PerLayer, err = perLayer(cfg, plain, traced); err != nil {
		return nil, err
	}
	if err := writeSpans(w, cfg, traced.tr); err != nil {
		return nil, err
	}
	return r, nil
}

// perLayer derives the per-layer metrics: counts and times from the traced
// pass's decorators, the client-side tail and the process counters from the
// untraced pass, and the two direct probes.
func perLayer(cfg runConfig, plain, traced *measurement) (map[string]value, error) {
	tr := traced.tr
	wallNs := float64(traced.wall)
	wallS := traced.wall.Seconds()
	acq := traced.okAcquires()

	var epochs, grants, assignNs float64
	var batch stats.Histogram
	for _, r := range tr.runners {
		epochs += float64(r.epochs)
		grants += float64(r.grants)
		assignNs += float64(r.busyNs)
		batch.Merge(&r.batch)
	}
	var reads, readBytes, writes, writeBytes, writeNs float64
	for _, c := range tr.conns {
		reads += float64(c.reads)
		readBytes += float64(c.readBytes)
		writes += float64(c.writes)
		writeBytes += float64(c.writeBytes)
		writeNs += float64(c.writeNs)
	}
	var appends, appendNs, bytes, walSyncs, syncs, syncNs, checkpoints, checkpointNs float64
	var syncHist, realSyncHist stats.Histogram
	var overFloor float64
	for _, s := range tr.sinks {
		appends += float64(s.appends)
		appendNs += float64(s.appendNs)
		bytes += float64(s.bytes)
		walSyncs += float64(s.walSyncs)
		syncs += float64(s.syncs)
		syncNs += float64(s.syncNs)
		checkpoints += float64(s.checkpoints)
		checkpointNs += float64(s.checkpointNs)
		syncHist.Merge(&s.syncHist)
		realSyncHist.Merge(&s.realSyncHist)
		overFloor += float64(s.overFloor)
	}
	var waits, waitNs float64
	var waitHist stats.Histogram
	if tr.gate != nil {
		for i := range tr.gate.shards {
			gs := &tr.gate.shards[i]
			waits += float64(gs.waits)
			waitNs += float64(gs.waitNs)
			waitHist.Merge(&gs.hist)
		}
	}
	var submitNs, submitOps float64
	inflightMax := 0
	var late []uint32
	for _, lc := range traced.load.conns {
		submitNs += float64(lc.submitNs)
		submitOps += float64(lc.submitOps)
		inflightMax = max(inflightMax, lc.inflightMax)
		late = append(late, lc.late...)
	}
	slices.Sort(late)
	var tail []uint32
	for _, lc := range plain.load.conns {
		inflightMax = max(inflightMax, lc.inflightMax)
		tail = append(tail, lc.lat...)
	}
	slices.Sort(tail)
	slices.Sort(traced.lag)

	batchMean := ratio(grants, epochs)
	epochNs, err := probeEpoch(cfg, int(batchMean+0.5))
	if err != nil {
		return nil, fmt.Errorf("epoch probe: %w", err)
	}
	frameNs, err := probeFrame(cfg)
	if err != nil {
		return nil, fmt.Errorf("frame probe: %w", err)
	}
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}

	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	vals := map[string]float64{
		"runner.batch_mean":            batchMean,
		"runner.batch_p99":             float64(batch.P99()),
		"runner.assign_ns_per_grant":   ratio(assignNs, grants),
		"runner.busy_frac":             ratio(assignNs, wallNs*serviceShards),
		"service.epochs_per_s":         ratio(float64(traced.after.Epochs-traced.before.Epochs), wallS),
		"service.absorbed":             float64(traced.after.Absorbed - traced.before.Absorbed),
		"service.epoch_ns_per_grant":   epochNs,
		"wire.frame_ns":                frameNs,
		"conn.reads_per_acquire":       ratio(reads, acq),
		"conn.read_bytes_per_call":     ratio(readBytes, reads),
		"conn.writes_per_acquire":      ratio(writes, acq),
		"conn.write_bytes_per_call":    ratio(writeBytes, writes),
		"conn.write_busy_frac":         ratio(writeNs, wallNs*float64(len(tr.conns))),
		"client.submit_ns_per_op":      ratio(submitNs, submitOps),
		"client.acquire_p99_us":        median(plain.series.p99us),
		"client.acquire_p999_us":       quantileU32(tail, 0.999) / 1e3,
		"client.acquire_max_us":        quantileU32(tail, 1) / 1e3,
		"durable.append_ns_per_record": ratio(appendNs, appends),
		"durable.bytes_per_acquire":    ratio(bytes, acq),
		"durable.syncs_per_s":          ratio(syncs, wallS),
		"durable.sync_p50_us":          us(syncHist.P50()),
		"durable.sync_p99_us":          us(syncHist.P99()),
		"durable.sync_busy_frac":       ratio(syncNs, wallNs),
		"durable.sync_real_p50_us":     us(realSyncHist.P50()),
		"durable.sync_real_p99_us":     us(realSyncHist.P99()),
		"durable.sync_over_floor_frac": ratio(overFloor, syncs),
		"durable.records_per_sync":     ratio(appends, walSyncs),
		"durable.checkpoints":          checkpoints,
		"durable.checkpoint_ms_total":  checkpointNs / 1e6,
		"durable.recovery_ms":          float64(traced.recovery) / 1e6,
		"commit.waits_per_s":           ratio(waits, wallS),
		"commit.wait_p50_us":           us(waitHist.P50()),
		"commit.wait_p99_us":           us(waitHist.P99()),
		"commit.wait_frac":             ratio(waitNs, wallNs*serviceShards),
		"repl.follower_lag_p50":        quantileF64(traced.lag, 0.50),
		"repl.follower_lag_p99":        quantileF64(traced.lag, 0.99),
		"repl.peer_bytes_per_acquire":  ratio(float64(tr.peerBytes.Load()), acq),
		"repl.elections":               float64(traced.elections),
		"loadgen.late_p99_us":          quantileU32(late, 0.99) / 1e3,
		"loadgen.inflight_max":         float64(inflightMax),
		"loadgen.failed_frac":          ratio(float64(plain.failed()+traced.failed()), float64(plain.attempted()+traced.attempted())),
		"process.rss_peak_mb":          rss,
		"process.mallocs_per_acquire":  ratio(float64(plain.mallocs), plain.okAcquires()),
		"trace.overhead_frac":          1 - ratio(median(traced.series.rate), median(plain.series.rate)),
	}
	out := make(map[string]value, len(perLayerDefs))
	for _, d := range perLayerDefs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s is declared but not computed", d.name)
		}
		out[d.name] = value{Value: v, Unit: d.unit}
	}
	return out, nil
}

// quantileF64 is quantileU32 for an ascending float sample.
func quantileF64(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return stats.Quantile(sorted, q)
}

// rssPeakMB reads the process's peak resident set from the kernel.
func rssPeakMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// writeSpans dumps the traced pass's span log, one span per line. A span's
// self time is its duration minus the part its children cover; the only
// nesting the seams expose is a sink.sync inside the commit.wait open on the
// same shard, and the header gives that split over every call, logged or not.
func writeSpans(w workload, cfg runConfig, tr *tracer) error {
	path := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.spans.tsv", w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	var waitNs, nestedNs int64
	if tr.gate != nil {
		for i := range tr.gate.shards {
			waitNs += tr.gate.shards[i].waitNs
		}
	}
	for _, s := range tr.sinks {
		nestedNs += s.nestedSyncNs
	}
	fmt.Fprintf(bw, "# spans of the traced pass: the first %d of each kind inside the measure window\n", spanCap)
	fmt.Fprintf(bw, "# over every call: commit.wait %d ns, of which %d ns under a sink.sync on the same shard (self %d ns)\n",
		waitNs, nestedNs, waitNs-nestedNs)
	fmt.Fprintln(bw, "ref\tname\tid\tstart_ns\tend_ns\tparent_ref")
	for k := spanKind(0); k < numSpanKinds; k++ {
		for i, s := range tr.spans(k) {
			fmt.Fprintf(bw, "%d\t%s\t%d\t%d\t%d\t%d\n", makeRef(k, int64(i)), spanNames[k], s.id, s.start, s.end, s.parent)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
