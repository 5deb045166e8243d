package simsvc

import (
	"encoding/json"
	"fmt"

	"ballsintoleaves/internal/stats"
)

// Result is one finished scenario run: the counters, the per-shard digests,
// and the latency / epoch-size distributions, all in virtual time. Every
// field is a pure function of (scenario, seed), which is what lets Artifact
// promise byte-identical output across runs.
type Result struct {
	Scenario   string
	Seed       uint64
	Shards     int
	ShardCap   int
	Clients    int
	VirtualNS  int64
	Acquires   uint64
	Grants     uint64
	Releases   uint64
	Cancels    uint64
	Crashes    uint64
	Absorbed   uint64
	Duplicates uint64
	Epochs     uint64
	PendingEnd int // queued requests at the horizon
	HeldEnd    int // assigned names at the horizon
	Digests    []uint64
	Latency    stats.Snapshot // acquire→grant, virtual ns
	EpochSizes stats.Snapshot // grants per closed epoch
	LatencyP50 int64
	LatencyP99 int64
	// Trace is the recorded operation stream for wire-replayable
	// scenarios, nil otherwise. It is not part of the JSON artifact.
	Trace *Trace
}

// artifact is the serialized form: titled tables of rows plus the raw
// histogram snapshots, so simulator artifacts and blload -json artifacts
// merge through the same stats.Histogram path. Deliberately no
// date or host fields — the artifact must be byte-identical for a fixed
// (scenario, seed), and that property is test-enforced.
type artifact struct {
	Experiment string          `json:"experiment"`
	Title      string          `json:"title"`
	Scenario   string          `json:"scenario"`
	Seed       uint64          `json:"seed"`
	VirtualMS  int64           `json:"virtual_ms"`
	Tables     []artifactTable `json:"tables"`
	Latency    stats.Snapshot  `json:"latency_ns"`
	EpochSizes stats.Snapshot  `json:"epoch_sizes"`
}

type artifactTable struct {
	Title string     `json:"title"`
	Cols  []string   `json:"cols"`
	Rows  [][]string `json:"rows"`
}

// Artifact renders the run as deterministic JSON: same (scenario, seed) →
// identical bytes.
func (r *Result) Artifact() ([]byte, error) {
	perSec := "0"
	if r.VirtualNS > 0 {
		perSec = fmt.Sprintf("%d", r.Acquires*1_000_000_000/uint64(r.VirtualNS))
	}
	meanEpoch := "0"
	if r.Epochs > 0 {
		meanEpoch = fmt.Sprintf("%d.%02d", r.Grants/r.Epochs, (r.Grants%r.Epochs)*100/r.Epochs)
	}
	combined := ""
	for _, d := range r.Digests {
		combined += fmt.Sprintf("%016x", d)
	}
	a := artifact{
		Experiment: "simsvc-scenario",
		Title:      fmt.Sprintf("simsvc scenario %q, seed %d: %d clients on %dx%d, %dms virtual", r.Scenario, r.Seed, r.Clients, r.Shards, r.ShardCap, r.VirtualNS/vms),
		Scenario:   r.Scenario,
		Seed:       r.Seed,
		VirtualMS:  r.VirtualNS / vms,
		Latency:    r.Latency,
		EpochSizes: r.EpochSizes,
		Tables: []artifactTable{{
			Title: "scenario counters (virtual time)",
			Cols:  []string{"metric", "value"},
			Rows: [][]string{
				{"acquires", fmt.Sprintf("%d", r.Acquires)},
				{"acquires/s", perSec},
				{"grants", fmt.Sprintf("%d", r.Grants)},
				{"releases", fmt.Sprintf("%d", r.Releases)},
				{"epochs", fmt.Sprintf("%d", r.Epochs)},
				{"mean epoch size", meanEpoch},
				{"latency p50 us", fmt.Sprintf("%d", r.LatencyP50/vus)},
				{"latency p99 us", fmt.Sprintf("%d", r.LatencyP99/vus)},
				{"duplicates", fmt.Sprintf("%d", r.Duplicates)},
				{"crashes", fmt.Sprintf("%d", r.Crashes)},
				{"cancels", fmt.Sprintf("%d", r.Cancels)},
				{"absorbed", fmt.Sprintf("%d", r.Absorbed)},
				{"pending at horizon", fmt.Sprintf("%d", r.PendingEnd)},
				{"held at horizon", fmt.Sprintf("%d", r.HeldEnd)},
				{"digest", combined},
			},
		}},
	}
	b, err := json.MarshalIndent(&a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
