// Command mptcpsim runs one experiment on the paper's overlapping-path
// network and reports the measured throughput split, the LP optimum and
// convergence metrics. It is the library's iperf+tshark-in-one.
//
// Examples:
//
//	mptcpsim -cc cubic -duration 4s -chart
//	mptcpsim -cc olia -duration 25s -paths 2,1,3
//	mptcpsim -cc lia -csv run.csv -pcap run.pcap
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"mptcpsim"
	"mptcpsim/internal/cli"
)

// run is the whole CLI behind a testable seam: parse args, run the
// experiment, print it, return the exit code (0 ok, 1 run or write failure,
// 2 usage).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mptcpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cc       = fs.String("cc", "cubic", "congestion control: cubic, reno, lia, olia, balia, wvegas")
		sched    = fs.String("scheduler", "minrtt", "scheduler: minrtt, roundrobin, redundant")
		duration = fs.Duration("duration", 4*time.Second, "traffic duration")
		seed     = fs.Int64("seed", 1, "random seed (runs are deterministic per seed)")
		paths    = fs.String("paths", "2,1,3", "subflow paths in priority order (first = default)")
		csvPath  = fs.String("csv", "", "write per-path series CSV to file")
		pcapPath = fs.String("pcap", "", "write receiver capture to pcap file")
		chart    = fs.Bool("chart", false, "render an ASCII chart of the run")
		topoPath = fs.String("topo", "paper", `topology: "paper" or a scenario JSON file (see mptcpsim.ScenarioFile)`)
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "mptcpsim:", err)
		return 1
	}
	order, err := parsePaths(*paths)
	if err != nil {
		fmt.Fprintln(stderr, "mptcpsim:", err)
		return 2
	}
	opts := mptcpsim.Options{
		CC:            *cc,
		Scheduler:     *sched,
		Duration:      *duration,
		Seed:          *seed,
		SubflowPaths:  order,
		RetainPackets: *pcapPath != "",
	}
	var nw *mptcpsim.Network
	if *topoPath == "paper" {
		nw = mptcpsim.PaperNetwork()
	} else {
		f, err := os.Open(*topoPath)
		if err != nil {
			return fail(err)
		}
		nw, err = mptcpsim.LoadNetwork(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		pathsSet := false
		fs.Visit(func(f *flag.Flag) { pathsSet = pathsSet || f.Name == "paths" })
		if !pathsSet && nw.NumPaths() != 3 {
			opts.SubflowPaths = nil // default order for custom topologies
		}
	}
	res, err := mptcpsim.Run(nw, opts)
	if err != nil {
		return fail(err)
	}

	fmt.Fprintln(stdout, "Network paths:")
	for i := 1; i <= nw.NumPaths(); i++ {
		fmt.Fprintf(stdout, "  Path %d: %s\n", i, nw.PathDescription(i))
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, res.Problem)
	if err := res.Report(stdout); err != nil {
		return fail(err)
	}
	if *chart {
		fmt.Fprintln(stdout)
		title := fmt.Sprintf("MPTCP-%s on overlapping paths (%v, %v bins)",
			strings.ToUpper(*cc), *duration, res.Options.SampleInterval)
		if err := res.Chart(stdout, title); err != nil {
			return fail(err)
		}
	}
	if *csvPath != "" {
		if err := cli.WriteFile(*csvPath, res.WriteCSV); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *csvPath)
	}
	if *pcapPath != "" {
		if err := cli.WriteFile(*pcapPath, res.WritePCAP); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d packets)\n", *pcapPath, res.Packets)
	}
	return 0
}

func parsePaths(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -paths element %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
