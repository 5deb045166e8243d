package main

import (
	"math"
	"slices"
	"strings"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds; TestBenchmarkJSONMatchesHarness pins
// the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share of the parent's median it may worsen by
}

// endToEndDefs are what a client of the service sees. Every value but
// setup_s is the median over the run's measure windows; setup_s is the
// median over the run's set-ups.
//
// The bounds are the widest the benchmark contract allows. The durable
// workloads run on a modelled disk (disk.go) and ten runs of unchanged code
// spread by 0.01–0.10 of their median; volatile-closed is bound by the CPUs
// of a shared two-core box, whose speed wanders over tens of seconds, and
// spreads by 0.07–0.2 (README.md, "Run-to-run spread"). The gated tail is
// p95 for the same reason: volatile-closed's per-window p99 spreads by up to
// half its median and is reported ungated as client.acquire_p99_us.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"acquires_per_s", "1/s", "higher", 0.25},
	{"acquire_p50_us", "us", "lower", 0.25},
	{"acquire_p95_us", "us", "lower", 0.25},
}

// perLayerDefs come from the traced run. A metric that does not apply to a
// workload (durable.* without a WAL, repl.* without replicas, loadgen.late
// on a closed loop) is reported as 0 and shown as "—".
var perLayerDefs = []metricDef{
	{"runner.batch_mean", "grants", "higher", 0},
	{"runner.batch_p99", "grants", "higher", 0},
	{"runner.assign_ns_per_grant", "ns", "lower", 0},
	{"runner.busy_frac", "frac", "lower", 0},
	{"service.epochs_per_s", "1/s", "lower", 0},
	{"service.absorbed", "count", "lower", 0},
	{"service.epoch_ns_per_grant", "ns", "lower", 0},
	{"wire.frame_ns", "ns", "lower", 0},
	{"conn.reads_per_acquire", "count", "lower", 0},
	{"conn.read_bytes_per_call", "B", "higher", 0},
	{"conn.writes_per_acquire", "count", "lower", 0},
	{"conn.write_bytes_per_call", "B", "higher", 0},
	{"conn.write_busy_frac", "frac", "lower", 0},
	{"client.submit_ns_per_op", "ns", "lower", 0},
	{"client.acquire_p99_us", "us", "lower", 0},
	{"client.acquire_p999_us", "us", "lower", 0},
	{"client.acquire_max_us", "us", "lower", 0},
	{"durable.append_ns_per_record", "ns", "lower", 0},
	{"durable.bytes_per_acquire", "B", "lower", 0},
	{"durable.syncs_per_s", "1/s", "lower", 0},
	{"durable.sync_p50_us", "us", "lower", 0},
	{"durable.sync_p99_us", "us", "lower", 0},
	{"durable.sync_busy_frac", "frac", "lower", 0},
	{"durable.sync_real_p50_us", "us", "lower", 0},
	{"durable.sync_real_p99_us", "us", "lower", 0},
	{"durable.sync_over_floor_frac", "frac", "lower", 0},
	{"durable.records_per_sync", "records", "higher", 0},
	{"durable.checkpoints", "count", "lower", 0},
	{"durable.checkpoint_ms_total", "ms", "lower", 0},
	{"durable.recovery_ms", "ms", "lower", 0},
	{"commit.waits_per_s", "1/s", "lower", 0},
	{"commit.wait_p50_us", "us", "lower", 0},
	{"commit.wait_p99_us", "us", "lower", 0},
	{"commit.wait_frac", "frac", "lower", 0},
	{"repl.follower_lag_p50", "records", "lower", 0},
	{"repl.follower_lag_p99", "records", "lower", 0},
	{"repl.peer_bytes_per_acquire", "B", "lower", 0},
	{"repl.elections", "count", "lower", 0},
	{"loadgen.late_p99_us", "us", "lower", 0},
	{"loadgen.inflight_max", "count", "lower", 0},
	{"loadgen.failed_frac", "frac", "lower", 0},
	{"process.rss_peak_mb", "MB", "lower", 0},
	{"process.mallocs_per_acquire", "count", "lower", 0},
	{"trace.overhead_frac", "frac", "lower", 0},
}

// applies reports whether a per-layer metric means anything on a workload.
func (d metricDef) applies(w workload) bool {
	switch layer, _, _ := strings.Cut(d.name, "."); layer {
	case "durable", "commit":
		return w.durable
	case "repl":
		return w.nodes > 1
	}
	if d.name == "loadgen.late_p99_us" || d.name == "loadgen.inflight_max" {
		return w.pacedRate > 0
	}
	return true
}

// value is one measured metric. IQR, Windows, Samples and Bound are filled
// for end-to-end metrics only.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	IQR     float64 `json:"iqr,omitempty"`
	Windows int     `json:"windows,omitempty"`
	Samples int     `json:"samples,omitempty"`
	Bound   float64 `json:"bound,omitempty"`
}

// summarize reduces one value per window to the reported median and
// inter-quartile range.
func summarize(d metricDef, perWindow []float64, samples int) value {
	q1, q2, q3 := quartiles(perWindow)
	return value{Value: q2, Unit: d.unit, IQR: q3 - q1, Windows: len(perWindow), Samples: samples, Bound: d.bound}
}

// quartiles are Python's statistics.quantiles(v, n=4) — the exclusive
// method, the one the driver judges spreads by. Fewer than two values have
// no spread: all three quartiles are the value itself.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based rank
		lo := int(math.Floor(pos))
		lo = max(1, min(lo, len(s)-1))
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	return at(1), at(2), at(3)
}

func median(v []float64) float64 {
	_, q2, _ := quartiles(v)
	return q2
}

// quantileU32 is the q-quantile of an ascending sample, linearly
// interpolated between the two nearest ranks. An empty sample yields 0.
func quantileU32(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]) + frac*(float64(sorted[lo+1])-float64(sorted[lo]))
}

// ratio is a/b, or 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowSeries are the per-window end-to-end values of one run.
type windowSeries struct {
	rate, p50us, p95us, p99us []float64
	samples                   int
}

// windowsOf cuts the connections' latency samples into the run's measure
// windows: acknowledged acquires per second, and the exact quantiles of the
// acquire→grant latencies that completed in each.
func windowsOf(l *load) windowSeries {
	var ws windowSeries
	var merged []uint32
	for w := 0; w < l.windows; w++ {
		merged = merged[:0]
		for _, lc := range l.conns {
			merged = append(merged, lc.window(w)...)
		}
		slices.Sort(merged)
		ws.samples += len(merged)
		ws.rate = append(ws.rate, float64(len(merged))/l.cfg.window.Seconds())
		ws.p50us = append(ws.p50us, quantileU32(merged, 0.50)/1e3)
		ws.p95us = append(ws.p95us, quantileU32(merged, 0.95)/1e3)
		ws.p99us = append(ws.p99us, quantileU32(merged, 0.99)/1e3)
	}
	return ws
}

// window returns the latencies that completed in window w.
func (lc *loadConn) window(w int) []uint32 {
	start := 0
	if w > 0 {
		start = lc.winEnd[w-1]
	}
	return lc.lat[start:lc.winEnd[w]]
}
