// Benchmark harness: one benchmark per reproduction experiment (E1–E13,
// see DESIGN.md §5), each reporting its headline quantity as a custom
// metric (rounds, phases, maxload, ...) next to the usual time/op, plus
// throughput benchmarks for the simulator itself.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment *tables* are regenerated by cmd/blbench; these benchmarks
// are the one-configuration-per-table variant for quick regression checks.
package ballsintoleaves_test

import (
	"fmt"
	"testing"

	bil "ballsintoleaves"
	"ballsintoleaves/internal/baseline"
	"ballsintoleaves/internal/core"
	"ballsintoleaves/internal/ids"
)

// runAblation executes one run with the internal ablation switches, which
// the public API deliberately does not expose.
func runAblation(n int, seed uint64, uniformCoin, labelPriority bool) (int, error) {
	cfg := core.Config{N: n, Seed: seed, UniformCoin: uniformCoin, LabelPriority: labelPriority}
	c, err := core.NewCohort(cfg, ids.Random(n, seed+0xab))
	if err != nil {
		return 0, err
	}
	res, err := c.Run()
	if err != nil {
		return 0, err
	}
	return res.Rounds, nil
}

// benchSeeds is the seed set every seeded benchmark cycles through: run i
// uses seed i mod benchSeeds. Seeding run i with i would make the inputs
// depend on b.N, so two runs that calibrate to different b.N would time
// different seeds (rounds vary by seed). With -benchtime a multiple of
// benchSeeds (e.g. -benchtime 32x) every seed weighs the same.
const benchSeeds = 16

// benchRename runs Rename b.N times (cycling the seed set) and reports the
// mean rounds as a custom metric.
func benchRename(b *testing.B, n int, opts func(seed uint64) []bil.Option) {
	b.Helper()
	totalRounds := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bil.Rename(n, opts(uint64(i%benchSeeds))...)
		if err != nil {
			b.Fatal(err)
		}
		totalRounds += res.Rounds
	}
	b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "balls/s")
}

// BenchmarkE1RoundsVsN regenerates E1's series: failure-free rounds as n
// doubles (Theorem 2's O(log log n)).
func BenchmarkE1RoundsVsN(b *testing.B) {
	for exp := 8; exp <= 18; exp += 2 {
		n := 1 << exp
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRename(b, n, func(seed uint64) []bil.Option {
				return []bil.Option{bil.WithSeed(seed)}
			})
		})
	}
}

// BenchmarkE2Separation regenerates E2's columns at one size: the paper's
// algorithm vs the deterministic Θ(log n) comparator vs naive random.
func BenchmarkE2Separation(b *testing.B) {
	const n = 1 << 12
	algos := []struct {
		name string
		algo bil.Algorithm
	}{
		{"balls-into-leaves", bil.BallsIntoLeaves},
		{"level-descent", bil.DeterministicLevelDescent},
		{"naive-random", bil.NaiveRandom},
	}
	for _, tc := range algos {
		b.Run(tc.name, func(b *testing.B) {
			benchRename(b, n, func(seed uint64) []bil.Option {
				return []bil.Option{bil.WithSeed(seed), bil.WithAlgorithm(tc.algo)}
			})
		})
	}
}

// BenchmarkE3EarlyTermination regenerates E3's rows: the §6 variant under
// f crashes at the membership round (Theorems 3 and 4).
func BenchmarkE3EarlyTermination(b *testing.B) {
	const n = 1 << 14
	for _, f := range []int{0, 16, 256, 4096} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			benchRename(b, n, func(seed uint64) []bil.Option {
				opts := []bil.Option{bil.WithSeed(seed), bil.WithAlgorithm(bil.EarlyTerminating)}
				if f > 0 {
					opts = append(opts, bil.WithCrashes(bil.RandomCrashes(f, 1, seed)))
				}
				return opts
			})
		})
	}
}

// BenchmarkE4Adversaries regenerates E4's rows: adaptive crash strategies
// against the randomized algorithm (§5.3: no slowdown).
func BenchmarkE4Adversaries(b *testing.B) {
	const n = 1 << 12
	plans := []struct {
		name string
		plan func(seed uint64) bil.CrashPlan
	}{
		{"none", func(uint64) bil.CrashPlan { return bil.NoCrashes() }},
		{"random-half", func(seed uint64) bil.CrashPlan { return bil.RandomCrashes(n/2, 13, seed) }},
		{"splitter", func(uint64) bil.CrashPlan { return bil.SplitterCrash(2) }},
		{"deep-target", func(seed uint64) bil.CrashPlan { return bil.DeepTargetCrashes(8, seed) }},
		{"rank-shifter", func(uint64) bil.CrashPlan { return bil.RankShifterCrashes() }},
	}
	for _, tc := range plans {
		b.Run(tc.name, func(b *testing.B) {
			benchRename(b, n, func(seed uint64) []bil.Option {
				return []bil.Option{bil.WithSeed(seed), bil.WithCrashes(tc.plan(seed))}
			})
		})
	}
}

// BenchmarkE5ContentionDecay regenerates E5's trajectory: per-phase
// maximum node contention, reported as the phase-1 bmax and the phase
// count to contention 1 (Lemmas 4–6).
func BenchmarkE5ContentionDecay(b *testing.B) {
	const n = 1 << 16
	var bmax1, calmPhase float64
	for i := 0; i < b.N; i++ {
		res, err := bil.Rename(n, bil.WithSeed(uint64(i%benchSeeds)), bil.WithPhaseMetrics())
		if err != nil {
			b.Fatal(err)
		}
		bmax1 += float64(res.PhaseStats[0].MaxBallsAtNode)
		for _, s := range res.PhaseStats {
			if s.MaxBallsAtNode <= 1 {
				calmPhase += float64(s.Phase)
				break
			}
		}
	}
	b.ReportMetric(bmax1/float64(b.N), "bmax_phase1")
	b.ReportMetric(calmPhase/float64(b.N), "phases_to_calm")
}

// BenchmarkE6PathDrain regenerates E6's series: busiest root-path load
// after phases 1 and 3 (Lemmas 7–10).
func BenchmarkE6PathDrain(b *testing.B) {
	const n = 1 << 16
	var p1, p3 float64
	for i := 0; i < b.N; i++ {
		res, err := bil.Rename(n, bil.WithSeed(uint64(i%benchSeeds)), bil.WithPhaseMetrics())
		if err != nil {
			b.Fatal(err)
		}
		p1 += float64(res.PhaseStats[0].BusiestPathLoad)
		if len(res.PhaseStats) > 2 {
			p3 += float64(res.PhaseStats[2].BusiestPathLoad)
		}
	}
	b.ReportMetric(p1/float64(b.N), "path_load_p1")
	b.ReportMetric(p3/float64(b.N), "path_load_p3")
}

// BenchmarkE7Dispersion regenerates E7's headline: fraction of balls on
// leaves after a single phase (Figure 2).
func BenchmarkE7Dispersion(b *testing.B) {
	const n = 1 << 14
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := bil.Rename(n, bil.WithSeed(uint64(i%benchSeeds)), bil.WithPhaseMetrics())
		if err != nil {
			b.Fatal(err)
		}
		frac += float64(res.PhaseStats[0].AtLeaves) / float64(n)
	}
	b.ReportMetric(100*frac/float64(b.N), "pct_at_leaves_p1")
}

// BenchmarkE8SlowBurn regenerates E8: phases under the one-crash-per-phase
// adversary, vs the O(n) deterministic bound (Lemma 11).
func BenchmarkE8SlowBurn(b *testing.B) {
	const n = 1 << 10
	var phases float64
	for i := 0; i < b.N; i++ {
		res, err := bil.Rename(n, bil.WithSeed(uint64(i%benchSeeds)), bil.WithCrashes(bil.OnePerPhaseCrashes()))
		if err != nil {
			b.Fatal(err)
		}
		phases += float64(res.Phases)
	}
	b.ReportMetric(phases/float64(b.N), "phases")
	b.ReportMetric(float64(n+1), "bound")
}

// BenchmarkE9LoadBalancers regenerates E9's columns: the load-balancing
// relatives that are fast but not one-to-one (or one-to-one but
// multi-round).
func BenchmarkE9LoadBalancers(b *testing.B) {
	const n = 1 << 14
	b.Run("relaxed-oneshot-d2", func(b *testing.B) {
		var maxload float64
		for i := 0; i < b.N; i++ {
			res, err := baseline.RunRelaxedOneShot(n, 2, uint64(i%benchSeeds))
			if err != nil {
				b.Fatal(err)
			}
			maxload += float64(res.MaxLoad)
		}
		b.ReportMetric(maxload/float64(b.N), "maxload")
	})
	b.Run("sequential-d2", func(b *testing.B) {
		var maxload float64
		for i := 0; i < b.N; i++ {
			res, err := baseline.RunSequentialDChoice(n, 2, uint64(i%benchSeeds))
			if err != nil {
				b.Fatal(err)
			}
			maxload += float64(res.MaxLoad)
		}
		b.ReportMetric(maxload/float64(b.N), "maxload")
	})
	b.Run("parallel-d2", func(b *testing.B) {
		var rounds float64
		for i := 0; i < b.N; i++ {
			res, err := baseline.RunParallelChoice(n, 2, uint64(i%benchSeeds), 0)
			if err != nil {
				b.Fatal(err)
			}
			rounds += float64(res.Rounds)
		}
		b.ReportMetric(rounds/float64(b.N), "rounds")
	})
}

// BenchmarkE10Traffic regenerates E10: wire bits per process per round.
func BenchmarkE10Traffic(b *testing.B) {
	const n = 1 << 12
	var bits float64
	for i := 0; i < b.N; i++ {
		res, err := bil.Rename(n, bil.WithSeed(uint64(i%benchSeeds)))
		if err != nil {
			b.Fatal(err)
		}
		bits += float64(res.Bytes) * 8 / float64(n) / float64(res.Rounds) / float64(n-1)
	}
	b.ReportMetric(bits/float64(b.N), "bits/link/round")
}

// BenchmarkE11Splitter regenerates E11: balls displaced by the §6 single
// crash against the deterministic first phase.
func BenchmarkE11Splitter(b *testing.B) {
	const n = 1 << 12
	var displaced float64
	for i := 0; i < b.N; i++ {
		res, err := bil.Rename(n,
			bil.WithSeed(uint64(i%benchSeeds)),
			bil.WithAlgorithm(bil.EarlyTerminating),
			bil.WithCrashes(bil.SplitterCrash(1)),
			bil.WithPhaseMetrics())
		if err != nil {
			b.Fatal(err)
		}
		displaced += float64(res.PhaseStats[0].Balls - res.PhaseStats[0].AtLeaves)
	}
	b.ReportMetric(displaced/float64(b.N), "displaced")
	b.ReportMetric(float64(n)/2, "n_over_2")
}

// BenchmarkE12Ablations regenerates E12a: the design-choice ablations.
func BenchmarkE12Ablations(b *testing.B) {
	const n = 1 << 12
	// The public API deliberately does not expose the ablation switches;
	// use the internal config through the workload helper instead.
	for _, tc := range []struct {
		name          string
		uniformCoin   bool
		labelPriority bool
	}{
		{"standard", false, false},
		{"uniform-coin", true, false},
		{"label-priority", false, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			totalRounds := 0
			for i := 0; i < b.N; i++ {
				res, err := runAblation(n, uint64(i%benchSeeds), tc.uniformCoin, tc.labelPriority)
				if err != nil {
					b.Fatal(err)
				}
				totalRounds += res
			}
			b.ReportMetric(float64(totalRounds)/float64(b.N), "rounds")
		})
	}
}

// BenchmarkE13Arity regenerates E13's rows: the tree-arity extension.
func BenchmarkE13Arity(b *testing.B) {
	const n = 1 << 14
	for _, arity := range []int{2, 4, 16} {
		b.Run(fmt.Sprintf("k=%d", arity), func(b *testing.B) {
			benchRename(b, n, func(seed uint64) []bil.Option {
				return []bil.Option{bil.WithSeed(seed), bil.WithTreeArity(arity)}
			})
		})
	}
}

// BenchmarkCohortThroughput measures raw simulation speed by size.
func BenchmarkCohortThroughput(b *testing.B) {
	for exp := 10; exp <= 18; exp += 4 {
		n := 1 << exp
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRename(b, n, func(seed uint64) []bil.Option {
				return []bil.Option{bil.WithSeed(seed)}
			})
		})
	}
}

// BenchmarkCohortCrashHeavyThroughput measures simulation speed when the
// adversary crashes n/2 balls with random partial delivery: the regime
// where the cohort partitions survivors into per-view groups each round, so
// the group-key and receiver-mask machinery (internal/bitset + partition
// refinement) dominates instead of the failure-free fast path.
func BenchmarkCohortCrashHeavyThroughput(b *testing.B) {
	for exp := 9; exp <= 11; exp += 2 {
		n := 1 << exp
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchRename(b, n, func(seed uint64) []bil.Option {
				return []bil.Option{
					bil.WithSeed(seed),
					bil.WithCrashes(bil.RandomCrashes(n/2, 13, seed)),
				}
			})
		})
	}
}

// BenchmarkReferenceEngine measures the faithful per-process engine for
// comparison with the cohort fast path.
func BenchmarkReferenceEngine(b *testing.B) {
	const n = 256
	benchRename(b, n, func(seed uint64) []bil.Option {
		return []bil.Option{bil.WithSeed(seed), bil.WithEngine(bil.ReferenceEngine)}
	})
}

// BenchmarkNaiveFast measures the flat baseline's central simulation.
func BenchmarkNaiveFast(b *testing.B) {
	const n = 1 << 14
	labels := ids.Random(n, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := baseline.RunNaiveFast(n, uint64(i%benchSeeds), labels); err != nil {
			b.Fatal(err)
		}
	}
}
