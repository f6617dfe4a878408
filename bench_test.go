package mptcpsim

// One benchmark per table/figure of the paper, plus the ablations
// cmd/figures writes. Experiment benchmarks run the full packet-level
// simulation per iteration (seed = iteration index) and report the
// reproduction's headline numbers as custom metrics:
//
//	mbps      mean total throughput over the run
//	gap%      optimality gap versus the LP total (90 Mbps)
//	conv%     fraction of iterations that reached the optimum band
//	conv_s    mean convergence time among converged iterations
//
// These are the figure and ablation benchmarks only: each doubles as a
// smoke test that the reproduction still produces its figure. Simulator and
// sweep speed is measured by the repository benchmark in bench/ (see
// BENCHMARK.json), not here, so ns/op of these says nothing a PR is held to.

import (
	"testing"
	"time"
)

// benchRun executes RunPaper once per iteration with rotating seeds and
// reports the aggregate reproduction metrics.
func benchRun(b *testing.B, opts Options) {
	b.Helper()
	var total, gap, convTime float64
	conv := 0
	for i := 0; i < b.N; i++ {
		opts.Seed = int64(i + 1)
		res, err := RunPaper(opts)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Summary.TotalMean
		gap += res.Summary.Gap
		if res.Summary.Converged {
			conv++
			convTime += res.Summary.ConvergedAt.Seconds()
		}
	}
	n := float64(b.N)
	b.ReportMetric(total/n, "mbps")
	b.ReportMetric(gap/n*100, "gap%")
	b.ReportMetric(float64(conv)/n*100, "conv%")
	if conv > 0 {
		b.ReportMetric(convTime/float64(conv), "conv_s")
	}
}

// BenchmarkFig1cLP regenerates the Fig. 1c optimisation: LP optimum,
// greedy trap and max-min (reported in Mbps).
func BenchmarkFig1cLP(b *testing.B) {
	var lpTot, greedy, maxmin float64
	for i := 0; i < b.N; i++ {
		res, err := RunPaper(Options{Duration: 10 * time.Millisecond, Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		lpTot = res.Optimum.Total
		greedy = total(res.Greedy)
		maxmin = total(res.MaxMin)
	}
	b.ReportMetric(lpTot, "lp_mbps")
	b.ReportMetric(greedy, "greedy_mbps")
	b.ReportMetric(maxmin, "maxmin_mbps")
}

// BenchmarkFig2aCubic regenerates Fig. 2a: MPTCP-CUBIC, 100 ms bins, 4 s.
func BenchmarkFig2aCubic(b *testing.B) {
	benchRun(b, Options{CC: "cubic"})
}

// BenchmarkFig2bOlia regenerates Fig. 2b: MPTCP-OLIA, 100 ms bins, 4 s.
func BenchmarkFig2bOlia(b *testing.B) {
	benchRun(b, Options{CC: "olia"})
}

// BenchmarkFig2cFine regenerates Fig. 2c: the early sawtooth at 10 ms bins.
func BenchmarkFig2cFine(b *testing.B) {
	benchRun(b, Options{CC: "cubic", Duration: 500 * time.Millisecond,
		SampleInterval: 10 * time.Millisecond})
}

// BenchmarkTableSummary regenerates the §3 results table: one
// sub-benchmark per congestion-control algorithm at the paper's horizon,
// plus the long horizons on which CUBIC always converges and OLIA
// converges slowly.
func BenchmarkTableSummary(b *testing.B) {
	rows := []struct {
		name string
		opts Options
	}{
		{"cubic/4s", Options{CC: "cubic"}},
		{"cubic/12s", Options{CC: "cubic", Duration: 12 * time.Second}},
		{"reno/4s", Options{CC: "reno"}},
		{"lia/4s", Options{CC: "lia"}},
		{"lia/25s", Options{CC: "lia", Duration: 25 * time.Second}},
		{"olia/4s", Options{CC: "olia"}},
		{"olia/25s", Options{CC: "olia", Duration: 25 * time.Second}},
		{"balia/4s", Options{CC: "balia"}},
		{"wvegas/4s", Options{CC: "wvegas"}},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) { benchRun(b, row.opts) })
	}
}

// BenchmarkOliaDefaultPath regenerates E7: OLIA's sensitivity to which
// path hosts the default subflow (paper: reached the optimum only when
// Path 2 was the default).
func BenchmarkOliaDefaultPath(b *testing.B) {
	for _, order := range [][]int{{2, 1, 3}, {1, 2, 3}, {3, 1, 2}} {
		name := map[int]string{1: "default-path1", 2: "default-path2", 3: "default-path3"}[order[0]]
		b.Run(name, func(b *testing.B) {
			benchRun(b, Options{CC: "olia", Duration: 25 * time.Second, SubflowPaths: order})
		})
	}
}

// BenchmarkAblationBuffers is A1: queue capacity controls drop frequency,
// the step size of the paper's "shake-down" gradient search.
func BenchmarkAblationBuffers(b *testing.B) {
	for _, qs := range []float64{0.25, 0.5, 1, 2} {
		b.Run(map[float64]string{0.25: "q0.25", 0.5: "q0.5", 1: "q1", 2: "q2"}[qs], func(b *testing.B) {
			benchRun(b, Options{CC: "cubic", QueueScale: qs})
		})
	}
}

// BenchmarkAblationScheduler is A3: the segment scheduler barely matters
// for bulk transfer (windows, not scheduling, bound each path), except
// that redundant mode burns capacity on duplicates.
func BenchmarkAblationScheduler(b *testing.B) {
	for _, sched := range []string{"minrtt", "redundant"} {
		b.Run(sched, func(b *testing.B) {
			benchRun(b, Options{CC: "cubic", Scheduler: sched})
		})
	}
}

// BenchmarkAblationSACK contrasts SACK scoreboard recovery with
// NewReno-only loss repair (the paper's kernel had SACK; without it the
// slow-start overshoot cripples the first seconds).
func BenchmarkAblationSACK(b *testing.B) {
	b.Run("sack", func(b *testing.B) { benchRun(b, Options{CC: "cubic"}) })
	b.Run("nosack", func(b *testing.B) { benchRun(b, Options{CC: "cubic", DisableSACK: true}) })
}

// BenchmarkAblationSharedLink is A2: two subflows over one shared
// bottleneck. Coupled LIA should take about one TCP's share (RFC 6356
// design goal); uncoupled CUBIC takes nearly all of it.
func BenchmarkAblationSharedLink(b *testing.B) {
	sf := &ScenarioFile{
		Links: []ScenarioLink{
			{A: "a", B: "m", Mbps: 40, DelayMs: 5},
			{A: "m", B: "b", Mbps: 40, DelayMs: 5},
		},
		Paths: []ScenarioPath{{Nodes: []string{"a", "m", "b"}}, {Nodes: []string{"a", "m", "b"}}},
	}
	sf.Endpoints.Src, sf.Endpoints.Dst = "a", "b"
	nw, err := sf.Build()
	if err != nil {
		b.Fatal(err)
	}
	for _, cc := range []string{"lia", "olia", "cubic"} {
		b.Run(cc, func(b *testing.B) {
			var tot float64
			for i := 0; i < b.N; i++ {
				res, err := Run(nw, Options{CC: cc, Seed: int64(i + 1), Duration: 5 * time.Second})
				if err != nil {
					b.Fatal(err)
				}
				tot += res.Summary.TotalMean
			}
			b.ReportMetric(tot/float64(b.N), "mbps")
		})
	}
}

// BenchmarkFairnessSharedBottleneck measures the RFC 6356 "do no harm"
// property: MPTCP (Paths 2+1, both crossing the 40 Mbps s-v1 link)
// competing with one plain CUBIC TCP on Path 2. Reported metric: the
// MPTCP/TCP rate ratio — coupled algorithms should sit near or below 1,
// uncoupled ones above it.
func BenchmarkFairnessSharedBottleneck(b *testing.B) {
	for _, cc := range []string{"lia", "olia", "wvegas", "cubic"} {
		b.Run(cc, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res, err := RunPaper(Options{
					CC:           cc,
					Seed:         int64(i + 1),
					Duration:     10 * time.Second,
					SubflowPaths: []int{2, 1},
					CrossTCP:     []int{2},
				})
				if err != nil {
					b.Fatal(err)
				}
				m1, _, _, _ := res.Paths[0].Stats(2*time.Second, 10*time.Second)
				m2, _, _, _ := res.Paths[1].Stats(2*time.Second, 10*time.Second)
				c, _, _, _ := res.Cross[0].Stats(2*time.Second, 10*time.Second)
				if c > 0 {
					ratio += (m1 + m2) / c
				}
			}
			b.ReportMetric(ratio/float64(b.N), "mptcp/tcp")
		})
	}
}
