// Command benchmark is the name service's end-to-end and per-layer
// benchmark. It wires the four configurations blnamed ships in-process —
// real loopback TCP, real DirSink files whose every fsync is held to a fixed
// 2 ms (disk.go) — drives them with its own load driver over namesvc.Client,
// checks the outputs, and prints every metric by name with its unit. See
// README.md.
//
//	go run ./benchmark                         # every workload, both runs, table on stderr
//	go run ./benchmark -json > bench.json      # the same, one JSON document on stdout
//	go run ./benchmark -aa                     # the suite twice; exits 1 if the two disagree
//	go run ./benchmark -workload volatile-closed -seed 3 -seconds 20 -trace 0
//
// The last form is the driver's: one workload, one run, and as the last
// line of standard output one JSON object {correct, attempted, failed,
// metrics} — the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// traceWindows is how many windows the suite's traced run covers, half of
// them untraced and half traced (the driver passes its own -seconds).
const traceWindows = 20

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs all: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seeds the client-ID stream, the prefill release set and the paced arrival schedule")
	seconds := fs.Int("seconds", 30, "measure windows of one second each")
	trace := fs.String("trace", "", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; empty: both")
	aa := fs.Bool("aa", false, "run the suite twice and compare the two; exit 1 on any disagreement")
	asJSON := fs.Bool("json", false, "print the suite as one JSON document on stdout")
	out := fs.String("out", "out/benchmark", "directory for span logs and temporary WAL dirs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != "" && *trace != "0" && *trace != "1") {
		fmt.Fprintln(stderr, "usage: benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-aa] [-json] [-out DIR]")
		return 2
	}
	selected := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v (have %s)\n", err, workloadNames())
			return 2
		}
		selected = []workload{w}
	}
	cfg := defaultRunConfig(*seed, *seconds, *out)

	if *trace != "" && len(selected) == 1 && !*aa {
		return driverRun(selected[0], cfg, *trace == "1", stdout, stderr)
	}

	runs := 1
	if *aa {
		runs = 2
	}
	var suites []*suite
	for i := 0; i < runs; i++ {
		s, err := runSuite(selected, cfg, *trace, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		suites = append(suites, s)
		printSuite(stderr, s)
	}
	code := 0
	var doc any = suites[0]
	if *aa {
		cmp := compareSuites(suites[0], suites[1])
		printComparison(stderr, cmp)
		if cmp.Disagree > 0 {
			code = 1
		}
		doc = cmp
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	for _, s := range suites {
		for _, r := range s.Workloads {
			if !r.Correct {
				code = 1
			}
		}
	}
	return code
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// driverRun is one run of one workload, reported the way the driver reads
// it. The metrics are printed even when a correctness check fails; the exit
// code says which.
func driverRun(w workload, cfg runConfig, traced bool, stdout, stderr io.Writer) int {
	var r *result
	var err error
	if traced {
		r, err = runPerLayer(w, cfg, cfg.windows)
	} else {
		r, err = runEndToEnd(w, cfg)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	printSuite(stderr, &suite{Env: currentEnv(cfg), Workloads: []*result{r}})
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	vals := r.EndToEnd
	if traced {
		vals = r.PerLayer
	}
	for k, v := range vals {
		line.Metrics[k] = metric{v.Value, v.Unit}
	}
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !r.Correct {
		return 1
	}
	return 0
}

// suite is one pass over the selected workloads: what -json prints.
type suite struct {
	Env       env       `json:"env"`
	Workloads []*result `json:"workloads"`
}

// env says where and on what the numbers were taken.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
}

func currentEnv(cfg runConfig) env {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       cfg.seed,
		Seconds:    cfg.windows,
	}
}

// runSuite runs each workload's untraced run, then its traced run, and
// merges the two into one result per workload. trace narrows it to one of
// the runs.
func runSuite(selected []workload, cfg runConfig, trace string, stderr io.Writer) (*suite, error) {
	s := &suite{Env: currentEnv(cfg)}
	for _, w := range selected {
		r := &result{Workload: w.name, Correct: true}
		if trace != "1" {
			fmt.Fprintf(stderr, "%s: untraced run, %d windows\n", w.name, cfg.windows)
			e, err := runEndToEnd(w, cfg)
			if err != nil {
				return nil, err
			}
			r.merge(e)
		}
		if trace != "0" {
			windows := min(cfg.windows, traceWindows)
			fmt.Fprintf(stderr, "%s: traced run, %d windows, half untraced then half traced\n", w.name, windows)
			p, err := runPerLayer(w, cfg, windows)
			if err != nil {
				return nil, err
			}
			r.merge(p)
		}
		s.Workloads = append(s.Workloads, r)
	}
	return s, nil
}

func (r *result) merge(o *result) {
	r.Correct = r.Correct && o.Correct
	r.Problems = append(r.Problems, o.Problems...)
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	if o.EndToEnd != nil {
		r.EndToEnd = o.EndToEnd
	}
	if o.PerLayer != nil {
		r.PerLayer = o.PerLayer
	}
}

// printSuite is the human table: every metric by name, with its unit.
func printSuite(w io.Writer, s *suite) {
	fmt.Fprintf(w, "\nnproc %d, GOMAXPROCS %d, %s, commit %s, seed %d\n",
		s.Env.NProc, s.Env.GOMAXPROCS, s.Env.GoVersion, s.Env.Commit, s.Env.Seed)
	for _, r := range s.Workloads {
		wl, _ := findWorkload(r.Workload)
		verdict := "correct"
		if !r.Correct {
			verdict = "INCORRECT"
		}
		fmt.Fprintf(w, "\n%s: %s, %d acquires attempted, %d failed\n", r.Workload, verdict, r.Attempted, r.Failed)
		for _, p := range r.Problems {
			fmt.Fprintf(w, "  problem: %s\n", p)
		}
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		if r.EndToEnd != nil {
			fmt.Fprintln(tw, "  end-to-end\tmedian\tunit\tiqr\twindows\tsamples\tbound")
			for _, d := range endToEndDefs {
				v := r.EndToEnd[d.name]
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%.4g\t%d\t%d\t%.0f%%\n", d.name, v.Value, v.Unit, v.IQR, v.Windows, v.Samples, 100*v.Bound)
			}
		}
		if r.PerLayer != nil {
			fmt.Fprintln(tw, "  per-layer\tvalue\tunit\t\t\t\t")
			for _, d := range perLayerDefs {
				if !d.applies(wl) {
					fmt.Fprintf(tw, "  %s\t—\t%s\t\t\t\t\n", d.name, d.unit)
					continue
				}
				fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\t\t\t\n", d.name, r.PerLayer[d.name].Value, d.unit)
			}
		}
		tw.Flush()
	}
}
