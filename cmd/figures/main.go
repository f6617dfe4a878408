// Command figures regenerates every table and figure of the paper's
// evaluation (and this reproduction's ablations) into an output directory:
//
//	fig1c_lp.txt        the optimisation problem and analytic solutions (E2)
//	fig2a_cubic.csv/txt CUBIC rates, 100 ms bins, 0-4 s (E3)
//	fig2b_olia.csv/txt  OLIA rates, 100 ms bins, 0-4 s (E4)
//	fig2c_fine.csv/txt  early sawtooth, 10 ms bins, 0-0.5 s (E5)
//	table_summary.csv   per-algorithm convergence/stability table (E6)
//	table_olia_default.csv  OLIA default-path sensitivity (E7)
//	table_buffers.csv   buffer-size ablation (A1)
//	table_scheduler.csv scheduler ablation (A3)
//	table_sack.csv      SACK vs NewReno-only ablation
//
// Use -seeds to average the tables over more runs and -quick for a fast
// smoke pass.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mptcpsim"
	"mptcpsim/internal/cli"
)

// gen is one invocation: where the artefacts go, how many seeds a table
// cell averages, and the first failure, after which every step is skipped.
type gen struct {
	outDir string
	seeds  int
	stdout io.Writer
	err    error
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind a testable seam: parse args, write every
// artefact, return the exit code (0 ok, 1 failure, 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	g := &gen{stdout: stdout}
	fs.StringVar(&g.outDir, "out", "out", "output directory")
	fs.IntVar(&g.seeds, "seeds", 5, "seeds per table cell")
	quick := fs.Bool("quick", false, "short horizons for a smoke run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	figDuration := 4 * time.Second
	longDuration := 25 * time.Second
	cubicHorizon := 12 * time.Second
	if *quick {
		figDuration = 2 * time.Second
		longDuration = 6 * time.Second
		cubicHorizon = 4 * time.Second
		g.seeds = min(g.seeds, 2)
	}
	g.err = os.MkdirAll(g.outDir, 0o755)

	g.fig1c()
	g.figure("fig2a_cubic", mptcpsim.Options{CC: "cubic", Duration: figDuration},
		"Fig 2a: MPTCP-CUBIC, 100 ms bins")
	g.figure("fig2b_olia", mptcpsim.Options{CC: "olia", Duration: figDuration},
		"Fig 2b: MPTCP-OLIA, 100 ms bins")
	g.figure("fig2c_fine", mptcpsim.Options{CC: "cubic", Duration: 500 * time.Millisecond,
		SampleInterval: 10 * time.Millisecond},
		"Fig 2c: early phase, 10 ms bins")

	g.tableSummary(figDuration, cubicHorizon, longDuration)
	g.tableOliaDefault(longDuration)
	g.tableBuffers(figDuration)
	g.tableScheduler(figDuration)
	g.tableSACK(figDuration)
	if g.err != nil {
		fmt.Fprintln(stderr, "figures:", g.err)
		return 1
	}
	fmt.Fprintln(stdout, "done:", g.outDir)
	return 0
}

func (g *gen) fig1c() {
	g.withFile("fig1c_lp.txt", func(w io.Writer) error {
		res, err := mptcpsim.RunPaper(mptcpsim.Options{Duration: 100 * time.Millisecond})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "The throughput constraints of Fig. 1c and their solutions")
		fmt.Fprintln(w)
		fmt.Fprint(w, res.Problem)
		fmt.Fprintln(w)
		fmt.Fprintf(w, "LP optimum:        total %.1f Mbps at %v\n", res.Optimum.Total, res.Optimum.PerPath)
		fmt.Fprintf(w, "greedy trap:       total %.1f Mbps at %v\n", sum(res.Greedy), res.Greedy)
		fmt.Fprintf(w, "max-min fair:      total %.1f Mbps at %v\n", sum(res.MaxMin), res.MaxMin)
		fmt.Fprintf(w, "proportional fair: total %.1f Mbps at %v\n", sum(res.PropFair), res.PropFair)
		return nil
	})
}

func (g *gen) figure(name string, opts mptcpsim.Options, title string) {
	if g.err != nil {
		return
	}
	opts.Seed = 1
	res, err := mptcpsim.RunPaper(opts)
	if err != nil {
		g.err = err
		return
	}
	g.withFile(name+".csv", res.WriteCSV)
	g.withFile(name+".txt", func(w io.Writer) error {
		if err := res.Chart(w, title); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return res.Report(w)
	})
}

// tableSummary reproduces the §3 findings: per algorithm, whether/when the
// optimum band is reached and how stable the rate is afterwards.
func (g *gen) tableSummary(figDur, cubicDur, longDur time.Duration) {
	g.withFile("table_summary.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "cc,horizon_s,seeds,converged,conv_frac,mean_conv_time_s,mean_total_mbps,mean_gap_pct,mean_post_cov")
		for _, row := range []struct {
			cc  string
			dur time.Duration
		}{
			{"cubic", figDur}, {"cubic", cubicDur},
			{"lia", figDur}, {"lia", longDur},
			{"olia", figDur}, {"olia", longDur},
			{"reno", figDur},
			{"balia", figDur}, {"balia", longDur},
			{"wvegas", figDur},
		} {
			conv, convTime, total, gap, cov := 0, 0.0, 0.0, 0.0, 0.0
			for s := 1; s <= g.seeds; s++ {
				res, err := mptcpsim.RunPaper(mptcpsim.Options{CC: row.cc, Seed: int64(s), Duration: row.dur})
				if err != nil {
					return err
				}
				if res.Summary.Converged {
					conv++
					convTime += res.Summary.ConvergedAt.Seconds()
				}
				total += res.Summary.TotalMean
				gap += float64(res.Summary.Gap * 100)
				cov += res.Summary.PostCoV
			}
			n := float64(g.seeds)
			mct := 0.0
			if conv > 0 {
				mct = convTime / float64(conv)
			}
			fmt.Fprintf(w, "%s,%.0f,%d,%d,%.2f,%.2f,%.1f,%.1f,%.3f\n",
				row.cc, row.dur.Seconds(), g.seeds, conv, float64(conv)/n, mct, total/n, gap/n, cov/n)
		}
		return nil
	})
}

// tableOliaDefault reproduces the "only if Path 2 was the default" probe.
func (g *gen) tableOliaDefault(dur time.Duration) {
	g.withFile("table_olia_default.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "default_path,seeds,converged,mean_conv_time_s,mean_gap_pct")
		for _, order := range [][]int{{2, 1, 3}, {1, 2, 3}, {3, 1, 2}} {
			conv, convTime, gap := 0, 0.0, 0.0
			for s := 1; s <= g.seeds; s++ {
				res, err := mptcpsim.RunPaper(mptcpsim.Options{CC: "olia", Seed: int64(s),
					Duration: dur, SubflowPaths: order})
				if err != nil {
					return err
				}
				if res.Summary.Converged {
					conv++
					convTime += res.Summary.ConvergedAt.Seconds()
				}
				gap += float64(res.Summary.Gap * 100)
			}
			mct := 0.0
			if conv > 0 {
				mct = convTime / float64(conv)
			}
			fmt.Fprintf(w, "%d,%d,%d,%.2f,%.1f\n", order[0], g.seeds, conv, mct, gap/float64(g.seeds))
		}
		return nil
	})
}

// tableBuffers is ablation A1: queue capacity scales the drop (gradient
// step) frequency and with it the shake-down.
func (g *gen) tableBuffers(dur time.Duration) {
	g.withFile("table_buffers.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "queue_scale,seeds,converged,mean_total_mbps,mean_gap_pct")
		for _, qs := range []float64{0.25, 0.5, 1, 2, 4} {
			conv, total, gap := 0, 0.0, 0.0
			for s := 1; s <= g.seeds; s++ {
				res, err := mptcpsim.RunPaper(mptcpsim.Options{CC: "cubic", Seed: int64(s),
					Duration: dur, QueueScale: qs})
				if err != nil {
					return err
				}
				if res.Summary.Converged {
					conv++
				}
				total += res.Summary.TotalMean
				gap += float64(res.Summary.Gap * 100)
			}
			n := float64(g.seeds)
			fmt.Fprintf(w, "%.2f,%d,%d,%.1f,%.1f\n", qs, g.seeds, conv, total/n, gap/n)
		}
		return nil
	})
}

// tableScheduler is ablation A3.
func (g *gen) tableScheduler(dur time.Duration) {
	g.withFile("table_scheduler.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "scheduler,seeds,mean_total_mbps,mean_goodput_mbps,dup_bytes_frac")
		for _, sched := range []string{"minrtt", "roundrobin", "redundant"} {
			total, good, dup := 0.0, 0.0, 0.0
			for s := 1; s <= g.seeds; s++ {
				res, err := mptcpsim.RunPaper(mptcpsim.Options{CC: "cubic", Seed: int64(s),
					Duration: dur, Scheduler: sched})
				if err != nil {
					return err
				}
				total += res.Summary.TotalMean
				good += float64(res.DeliveredBytes) * 8 / dur.Seconds() / 1e6
				if res.DeliveredBytes+res.DuplicateBytes > 0 {
					dup += float64(res.DuplicateBytes) / float64(res.DeliveredBytes+res.DuplicateBytes)
				}
			}
			n := float64(g.seeds)
			fmt.Fprintf(w, "%s,%d,%.1f,%.1f,%.3f\n", sched, g.seeds, total/n, good/n, dup/n)
		}
		return nil
	})
}

// tableSACK contrasts SACK scoreboard recovery with NewReno-only.
func (g *gen) tableSACK(dur time.Duration) {
	g.withFile("table_sack.csv", func(w io.Writer) error {
		fmt.Fprintln(w, "sack,seeds,mean_total_mbps,mean_gap_pct,mean_rtos")
		for _, disable := range []bool{false, true} {
			total, gap, rtos := 0.0, 0.0, 0.0
			for s := 1; s <= g.seeds; s++ {
				res, err := mptcpsim.RunPaper(mptcpsim.Options{CC: "cubic", Seed: int64(s),
					Duration: dur, DisableSACK: disable})
				if err != nil {
					return err
				}
				total += res.Summary.TotalMean
				gap += float64(res.Summary.Gap * 100)
				for _, sf := range res.Subflows {
					rtos += float64(sf.RTOs)
				}
			}
			n := float64(g.seeds)
			fmt.Fprintf(w, "%v,%d,%.1f,%.1f,%.1f\n", !disable, g.seeds, total/n, gap/n, rtos/n)
		}
		return nil
	})
}

func (g *gen) withFile(name string, fn func(w io.Writer) error) {
	if g.err != nil {
		return
	}
	path := filepath.Join(g.outDir, name)
	if err := cli.WriteFile(path, fn); err != nil {
		g.err = fmt.Errorf("%s: %w", name, err)
		return
	}
	fmt.Fprintln(g.stdout, "wrote", path)
}

func sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}
