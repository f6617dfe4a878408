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
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mptcpsim"
	"mptcpsim/internal/cli"
)

func main() {
	var (
		cc       = flag.String("cc", "cubic", "congestion control: cubic, reno, lia, olia, balia, wvegas")
		sched    = flag.String("scheduler", "minrtt", "scheduler: minrtt, roundrobin, redundant")
		duration = flag.Duration("duration", 4*time.Second, "traffic duration")
		bin      = flag.Duration("bin", 100*time.Millisecond, "capture bin width (paper: 100ms or 10ms)")
		seed     = flag.Int64("seed", 1, "random seed (runs are deterministic per seed)")
		paths    = flag.String("paths", "2,1,3", "subflow paths in priority order (first = default)")
		qscale   = flag.Float64("queue-scale", 1, "multiply all queue capacities")
		nosack   = flag.Bool("nosack", false, "disable SACK (NewReno-only recovery)")
		transfer = flag.Int("transfer", 0, "fixed transfer size in bytes (0 = stream for -duration)")
		csvPath  = flag.String("csv", "", "write per-path series CSV to file")
		pcapPath = flag.String("pcap", "", "write receiver capture to pcap file")
		chart    = flag.Bool("chart", false, "render an ASCII chart of the run")
		topoPath = flag.String("topo", "paper", `topology: "paper" or a scenario JSON file (see mptcpsim.ScenarioFile)`)
	)
	flag.Parse()

	order, err := parsePaths(*paths)
	if err != nil {
		fatal(err)
	}
	opts := mptcpsim.Options{
		CC:             *cc,
		Scheduler:      *sched,
		Duration:       *duration,
		SampleInterval: *bin,
		Seed:           *seed,
		SubflowPaths:   order,
		QueueScale:     *qscale,
		DisableSACK:    *nosack,
		TransferBytes:  *transfer,
		RetainPackets:  *pcapPath != "",
	}
	var nw *mptcpsim.Network
	if *topoPath == "paper" {
		nw = mptcpsim.PaperNetwork()
	} else {
		f, err := os.Open(*topoPath)
		if err != nil {
			fatal(err)
		}
		nw, err = mptcpsim.LoadNetwork(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if len(order) == 0 || *paths == "2,1,3" && nw.NumPaths() != 3 {
			opts.SubflowPaths = nil // default order for custom topologies
		}
	}
	res, err := mptcpsim.Run(nw, opts)
	if err != nil {
		fatal(err)
	}

	fmt.Println("Network paths:")
	for i := 1; i <= nw.NumPaths(); i++ {
		fmt.Printf("  Path %d: %s\n", i, nw.PathDescription(i))
	}
	fmt.Println()
	fmt.Println(res.Problem)
	if err := res.Report(os.Stdout); err != nil {
		fatal(err)
	}
	if *chart {
		fmt.Println()
		title := fmt.Sprintf("MPTCP-%s on overlapping paths (%v, %v bins)", strings.ToUpper(*cc), *duration, *bin)
		if err := res.Chart(os.Stdout, title); err != nil {
			fatal(err)
		}
	}
	if *csvPath != "" {
		if err := cli.WriteFile(*csvPath, res.WriteCSV); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if *pcapPath != "" {
		if err := cli.WriteFile(*pcapPath, res.WritePCAP); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d packets)\n", *pcapPath, res.Packets)
	}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mptcpsim:", err)
	os.Exit(1)
}
