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
// A table is the sweep of grid files in grids/, built into the command,
// with one row per group of the sweep's result; the groups keep subflow
// orderings apart. The files hold the full horizons and no seeds, so
// cmd/sweep reruns a table's cells from them as they stand:
//
//	sweep -grid cmd/figures/grids/table_buffers.json -seeds 20 -groups buffers.csv
//
// A table's runs execute in parallel, GOMAXPROCS at a time; the artefacts do
// not depend on it. Use -seeds to average the tables over more runs and
// -quick for a fast smoke pass.
package main

import (
	"embed"
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

// grids holds the tables' grid files.
//
//go:embed grids/*.json
var grids embed.FS

// quickMs is the -quick stand-in for each horizon of the grid files, in
// milliseconds.
var quickMs = map[float64]float64{4000: 2000, 12000: 4000, 25000: 6000}

// gen is one invocation: where the artefacts go, how many seeds a table
// cell averages over, whether horizons are cut short, and the first
// failure, after which every step is skipped.
type gen struct {
	outDir string
	seeds  int
	quick  bool
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
	fs.BoolVar(&g.quick, "quick", false, "short horizons for a smoke run")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	figDuration := 4 * time.Second
	if g.quick {
		figDuration = 2 * time.Second
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

	g.tableSummary()
	// The "only if Path 2 was the default" probe: a row per ordering.
	g.table("table_olia_default", "default_path,seeds,converged,mean_conv_time_s,mean_gap_pct",
		func(grp mptcpsim.GroupStats) string {
			return fmt.Sprintf("%d,%d,%d,%.2f,%.1f", grp.Order[0], grp.Runs, grp.Converged,
				grp.ConvergedAtS.Mean, grp.Gap.Mean*100)
		})
	// Ablation A1: queue capacity scales the drop (gradient step) frequency
	// and with it the shake-down. A perturbation is named after its scale.
	g.table("table_buffers", "queue_scale,seeds,converged,mean_total_mbps,mean_gap_pct",
		func(grp mptcpsim.GroupStats) string {
			return fmt.Sprintf("%s,%d,%d,%.1f,%.1f", grp.Perturbation, grp.Runs, grp.Converged,
				grp.TotalMbps.Mean, grp.Gap.Mean*100)
		})
	// Ablation A3: the segment scheduler.
	g.table("table_scheduler", "scheduler,seeds,mean_total_mbps,mean_goodput_mbps,dup_bytes_frac",
		func(grp mptcpsim.GroupStats) string {
			return fmt.Sprintf("%s,%d,%.1f,%.1f,%.3f", grp.Scheduler, grp.Runs, grp.TotalMbps.Mean,
				grp.GoodputMbps.Mean, grp.DupFrac.Mean)
		})
	// SACK scoreboard recovery against NewReno-only; a perturbation is named
	// after whether SACK is on.
	g.table("table_sack", "sack,seeds,mean_total_mbps,mean_gap_pct,mean_rtos",
		func(grp mptcpsim.GroupStats) string {
			return fmt.Sprintf("%s,%d,%.1f,%.1f,%.1f", grp.Perturbation, grp.Runs, grp.TotalMbps.Mean,
				grp.Gap.Mean*100, grp.RTOs.Mean)
		})
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
// optimum band is reached and how stable the rate is afterwards, at the
// figures' horizon and then at the algorithm's long horizon if it has one.
func (g *gen) tableSummary() {
	g.withFile("table_summary.csv", func(w io.Writer) error {
		type horizon struct {
			grid *mptcpsim.Grid
			res  *mptcpsim.SweepResult
		}
		var hs []horizon
		for _, name := range []string{"table_summary", "table_summary_12s", "table_summary_25s"} {
			grid, res, err := g.sweep(name)
			if err != nil {
				return err
			}
			hs = append(hs, horizon{grid, res})
		}
		fmt.Fprintln(w, "cc,horizon_s,seeds,converged,conv_frac,mean_conv_time_s,mean_total_mbps,mean_gap_pct,mean_post_cov")
		for _, first := range hs[0].res.Groups {
			for _, h := range hs {
				for _, grp := range h.res.Groups {
					if grp.CC == first.CC {
						fmt.Fprintf(w, "%s,%.0f,%d,%d,%.2f,%.2f,%.1f,%.1f,%.3f\n", grp.CC, h.grid.DurationMs/1000,
							grp.Runs, grp.Converged, float64(grp.Converged)/float64(grp.Runs),
							grp.ConvergedAtS.Mean, grp.TotalMbps.Mean, grp.Gap.Mean*100, grp.PostCoV.Mean)
					}
				}
			}
		}
		return nil
	})
}

// table writes <name>.csv from the sweep of grids/<name>.json: the header,
// then one row per group.
func (g *gen) table(name, header string, row func(mptcpsim.GroupStats) string) {
	g.withFile(name+".csv", func(w io.Writer) error {
		_, res, err := g.sweep(name)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, header)
		for _, grp := range res.Groups {
			fmt.Fprintln(w, row(grp))
		}
		return nil
	})
}

// sweep runs grids/<name>.json over seeds 1..g.seeds, each horizon cut to
// its -quick stand-in under -quick, and groups the runs with orderings kept
// apart. A failed run fails the sweep.
func (g *gen) sweep(name string) (*mptcpsim.Grid, *mptcpsim.SweepResult, error) {
	f, err := grids.Open("grids/" + name + ".json")
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	grid, err := mptcpsim.LoadGrid(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	for s := 1; s <= g.seeds; s++ {
		grid.Seeds = append(grid.Seeds, int64(s))
	}
	if g.quick {
		ms, ok := quickMs[grid.DurationMs]
		if !ok {
			return nil, nil, fmt.Errorf("%s: no -quick horizon for %v ms", name, grid.DurationMs)
		}
		grid.DurationMs = ms
	}
	res, err := (&mptcpsim.Sweep{}).Run(grid)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", name, err)
	}
	if n := res.Errs(); n > 0 {
		return nil, nil, fmt.Errorf("%s: %d of %d runs failed", name, n, len(res.Runs))
	}
	res.SplitOrders()
	return grid, res, nil
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
