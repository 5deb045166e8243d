package main

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// The A/A procedure: the same code measured twice, back to back, must agree
// with itself within the bounds the benchmark will later hold changes to.
// A bound tighter than the box's own run-to-run spread cannot tell a
// regression from noise, and this is how that is found out.

// comparison is what -aa prints.
type comparison struct {
	First    *suite `json:"first"`
	Second   *suite `json:"second"`
	Rows     []row  `json:"rows"`
	Disagree int    `json:"disagree"`
}

// row compares one end-to-end metric of one workload across the two suites.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	FirstIQR float64 `json:"first_iqr"`
	Second   float64 `json:"second"`
	SecIQR   float64 `json:"second_iqr"`
	Ratio    float64 `json:"ratio"` // second / first
	Bound    float64 `json:"bound"`
	// Verdict is "unresolved" when either run's own spread (IQR over
	// median) is wider than the bound; else "disagree" when the second
	// median is worse than the first by more than the bound — the rule the
	// driver holds two sets of runs of unchanged code to; else "agree".
	Verdict string `json:"verdict"`
}

func compareSuites(a, b *suite) *comparison {
	c := &comparison{First: a, Second: b}
	for i, ra := range a.Workloads {
		rb := b.Workloads[i]
		for _, d := range endToEndDefs {
			va, vb := ra.EndToEnd[d.name], rb.EndToEnd[d.name]
			r := row{
				Workload: ra.Workload, Metric: d.name, Unit: d.unit,
				First: va.Value, FirstIQR: va.IQR, Second: vb.Value, SecIQR: vb.IQR,
				Ratio: ratio(vb.Value, va.Value), Bound: d.bound,
			}
			switch {
			case ratio(va.IQR, va.Value) > d.bound || ratio(vb.IQR, vb.Value) > d.bound:
				r.Verdict = "unresolved"
			case worsening(d, r.Ratio) > d.bound:
				r.Verdict = "disagree"
				c.Disagree++
			default:
				r.Verdict = "agree"
			}
			c.Rows = append(c.Rows, r)
		}
	}
	return c
}

// worsening is how much worse the second median is than the first, as a
// share of the first; negative when it is better.
func worsening(d metricDef, secondOverFirst float64) float64 {
	if d.better == "higher" {
		return 1 - secondOverFirst
	}
	return secondOverFirst - 1
}

func printComparison(w io.Writer, c *comparison) {
	fmt.Fprintln(w, "\nA/A: the suite against itself")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tfirst\tiqr\tsecond\tiqr\tratio\tbound\tverdict")
	for _, r := range c.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.4g\t%.6g\t%.4g\t%.3f\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.Unit, r.First, r.FirstIQR, r.Second, r.SecIQR, r.Ratio, 100*r.Bound, r.Verdict)
	}
	tw.Flush()
}
