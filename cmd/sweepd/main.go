// Command sweepd drives a fleet of sweep workers over one parameter grid:
// the coordinator expands the grid once, cuts it into -shards slices, and
// leases each slice to a worker with a deadline. Workers append to
// per-shard NDJSON run-logs in the shared -spool directory; a worker that
// crashes (or outlives its lease) is replaced by a new lease that resumes
// the same log past the last committed record, so no completed run is ever
// re-executed and a late straggler's double-finish is rejected by the
// lease epoch. When every shard's log is complete, the coordinator merges
// them through the same validated path as `sweep -merge` — the fleet's
// report and output files are byte-identical to an unsharded `sweep` run
// of the same grid, no matter how many workers died.
//
// By default shards execute in-process (goroutine workers). With -worker
// the coordinator execs one `sweep` process per lease instead:
//
//	sweep -shard k/n -resume <spool>/shard-k-of-n.ndjson -q ...
//
// so workers are ordinary sweep invocations and anything able to write a
// shard run-log can stand in for one.
//
// Examples:
//
//	sweepd -grid grid.json -shards 8 -fleet 3 -spool spool -json sweep.json
//	sweepd -grid grid.json -shards 8 -fleet 3 -spool spool -worker ./sweep
//	sweepd -grid grid.json -shards 4 -spool spool -progress - -http :6060
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"mptcpsim"
	"mptcpsim/internal/cli"
	"mptcpsim/internal/fleet"
	"mptcpsim/internal/telemetry"
)

// config carries the resolved command line.
type config struct {
	cli.Flags
	gridPath  string
	shards    int
	fleetSize int
	workers   int
	spool     string
	workerBin string
	ttl       time.Duration
	attempts  int
	backoff   time.Duration
	poll      time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.gridPath, "grid", "", "JSON grid spec (default: built-in paper grid)")
	flag.IntVar(&cfg.shards, "shards", 4, "number of grid slices to lease out")
	flag.IntVar(&cfg.fleetSize, "fleet", 2, "concurrent leases (worker slots)")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "parallel runs inside each worker")
	flag.StringVar(&cfg.spool, "spool", "spool", "shared spool directory for shard run-logs")
	flag.StringVar(&cfg.workerBin, "worker", "", "sweep binary to exec per lease (default: run shards in-process)")
	flag.DurationVar(&cfg.ttl, "ttl", 10*time.Minute, "lease deadline; an expired lease is re-granted")
	flag.IntVar(&cfg.attempts, "attempts", 5, "max grants per shard before the fleet aborts")
	flag.DurationVar(&cfg.backoff, "backoff", time.Second, "delay before re-granting a failed shard")
	flag.DurationVar(&cfg.poll, "poll", 200*time.Millisecond, "spool progress-scan interval")
	cfg.RegisterOutputs(flag.CommandLine)
	cfg.RegisterObserve(flag.CommandLine, "stream NDJSON fleet heartbeats to this file (- = stderr)",
		"serve expvar + pprof debug endpoints on this address (e.g. :6060)")
	cfg.RegisterQuiet(flag.CommandLine, "suppress coordinator lease notices")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sweepd: unexpected arguments %v\n", flag.Args())
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

// run executes the whole command against the given streams: notices and
// heartbeats go to stderr, the deterministic report to stdout.
func run(cfg config, stdout, stderr io.Writer) error {
	if cfg.shards <= 0 {
		return fmt.Errorf("-shards must be positive, have %d", cfg.shards)
	}
	if cfg.fleetSize <= 0 {
		return fmt.Errorf("-fleet must be positive, have %d", cfg.fleetSize)
	}
	if cfg.ttl <= 0 {
		return fmt.Errorf("-ttl must be positive, have %v", cfg.ttl)
	}
	if cfg.attempts < 1 {
		return fmt.Errorf("-attempts must be at least 1, have %d", cfg.attempts)
	}
	grid, err := cli.LoadGrid(cfg.gridPath)
	if err != nil {
		return err
	}
	sweep := &mptcpsim.Sweep{Workers: cfg.workers}
	_, total, err := sweep.Describe(grid)
	if err != nil {
		return err
	}

	meter, stopObserve, err := cfg.StartObserve(total, cfg.fleetSize, stderr)
	if err != nil {
		return err
	}
	defer stopObserve()

	var runner fleet.Runner
	if cfg.workerBin != "" {
		runner = &fleet.ExecRunner{
			Bin:      cfg.workerBin,
			GridPath: cfg.gridPath,
			Workers:  cfg.workers,
			Spool:    cfg.spool,
			Stderr:   stderr,
		}
	} else {
		runner = &fleet.Worker{Sweep: sweep, Grid: grid, Spool: cfg.spool}
	}
	coord := &fleet.Coordinator{
		Sweep:       sweep,
		Grid:        grid,
		Shards:      cfg.shards,
		Workers:     cfg.fleetSize,
		Spool:       cfg.spool,
		Runner:      runner,
		TTL:         cfg.ttl,
		MaxAttempts: cfg.attempts,
		Backoff:     cfg.backoff,
		Poll:        cfg.poll,
		Meter:       meter,
	}
	if !cfg.Quiet {
		coord.Log = stderr
	}
	// The live view is the report's own result: once the fleet finishes,
	// its groups are the groups of -json's sweep.json.
	telemetry.Publish("fleet_progress", expvar.Func(func() any {
		res := coord.Progress()
		errs := res.Errs()
		return struct {
			Runs   int                   `json:"runs"`
			Errors int                   `json:"errors"`
			Groups []mptcpsim.GroupStats `json:"groups"`
		}{len(res.Runs) - errs, errs, res.Groups}
	}))

	start := time.Now()
	res, err := coord.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "fleet: merged %d runs from %d shards in %v\n",
		len(res.Runs), cfg.shards, time.Since(start).Round(time.Millisecond))
	return cfg.Report(res, stdout)
}
