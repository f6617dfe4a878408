// Command sweep runs a parameter grid of experiments in parallel and
// reports per-run optimality gaps against the LP baseline plus aggregate
// statistics per (scenario, perturbation, cc, scheduler) cell.
//
// Without -grid it runs the paper question as a batch: every
// congestion-control algorithm crossed with four subflow orderings on the
// Fig. 1a network (24 runs). A JSON grid spec (see mptcpsim.Grid) selects
// arbitrary axes, including scenario files and link perturbations:
//
//	{
//	  "ccs": ["cubic", "olia"],
//	  "orders": [[2,1,3], [1,2,3]],
//	  "seeds": [1, 2, 3],
//	  "perturbations": [
//	    {"name": "base"},
//	    {"name": "lossy", "loss": 0.005},
//	    {"name": "shallow", "queue_scale": 0.25}
//	  ],
//	  "events": [
//	    {"name": "static"},
//	    {"name": "outage", "events": [
//	      {"at_ms": 2000, "type": "link_down", "a": "s", "b": "v1"}]}
//	  ],
//	  "scenarios": [{"name": "paper", "paper": true},
//	                {"name": "mine", "file": "mine.json"}]
//	}
//
// Output is deterministic for a given grid regardless of -workers: run
// indices follow grid expansion order and contain no wall-clock data.
// -check attaches the invariant oracle to every run; a violation fails
// the run like any other error.
//
// Grids too large to hold in memory stream instead: -stream appends one
// NDJSON record per run to a run-log as runs complete (fsync'd in
// batches), keeping peak memory flat in grid size, then renders the
// report and output files from the log in a merge-style second pass —
// byte-identical to the in-memory sweep. A killed sweep continues with
// -resume, which skips already-logged runs and rewrites a torn trailing
// record:
//
//	sweep -grid grid.json -stream sweep.ndjson -json sweep.json
//	sweep -grid grid.json -resume sweep.ndjson -json sweep.json  # after a crash
//
// Large grids shard across processes or machines: -shard k/n streams the
// deterministic 1/n slice of the grid (expansion index % n == k) to its
// own run-log, and -merge reassembles the n run-logs into output
// byte-identical to the unsharded sweep:
//
//	sweep -grid grid.json -shard 0/4 -q -stream shard-0.ndjson   # x4, anywhere
//	sweep -merge -json sweep.json shard-*.ndjson
//
// Examples:
//
//	sweep -workers 8
//	sweep -grid grid.json -csv runs.csv -groups groups.csv -json sweep.json
//	sweep -seeds 5 -duration 8s -quiet -check
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"mptcpsim"
	"mptcpsim/internal/cli"
)

// usageMatrix documents which flag combinations form a mode; flag.Usage
// prints it above the per-flag help.
const usageMatrix = `Modes and supported flag combinations:

  sweep [flags]                  in-memory sweep: report to stdout, plus
                                 -csv/-groups/-json output files
  sweep -stream f.ndjson         flat-memory sweep: every run appended to an
                                 NDJSON run-log, report and output files
                                 rendered from the log in a second pass,
                                 byte-identical to the in-memory sweep
  sweep -shard k/n -stream f     one grid slice -> mergeable run-log
                                 (aggregate outputs refused; use -merge)
  sweep -resume f.ndjson         continue an interrupted -stream sweep (with
                                 its -shard, if any): logged runs are
                                 skipped, a torn trailing record is
                                 truncated and re-executed
  sweep -merge a.ndjson b.ndjson merge run-logs with matching grid digests
                                 into the full output

-stream and -resume are mutually exclusive; -shard needs one of them.

Flags:
`

// config carries the resolved command line.
type config struct {
	cli.Flags
	gridPath   string
	workers    int
	seeds      int
	duration   time.Duration
	check      bool
	shard      string
	merge      bool
	logPaths   []string
	telemetry  bool
	flightDir  string
	eventLimit uint64
	streamPath string
	resumePath string
}

func main() {
	var cfg config
	fs := flag.CommandLine
	fs.StringVar(&cfg.gridPath, "grid", "", "JSON grid spec (default: built-in paper grid, all CCs x 4 orderings)")
	fs.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "parallel worker goroutines")
	fs.IntVar(&cfg.seeds, "seeds", 1, "seeds 1..n (ignored when the grid file lists seeds)")
	fs.DurationVar(&cfg.duration, "duration", 0, "traffic duration override (0 = grid / 4s default)")
	fs.BoolVar(&cfg.check, "check", false, "validate correctness invariants on every run")
	fs.StringVar(&cfg.shard, "shard", "", "run only the k/n slice of the grid (e.g. 0/4); needs -stream or -resume")
	fs.BoolVar(&cfg.merge, "merge", false, "merge the run-logs named as arguments instead of sweeping")
	fs.BoolVar(&cfg.telemetry, "telemetry", false, "collect engine counters per run and report the sweep-wide rollup")
	fs.StringVar(&cfg.flightDir, "flightdir", "", "dump failed runs' flight-recorder tails to this directory (implies -telemetry)")
	fs.Uint64Var(&cfg.eventLimit, "eventlimit", 0, "abort any run after this many simulation events (0 = no limit)")
	fs.StringVar(&cfg.streamPath, "stream", "", "stream the sweep to this NDJSON run-log and render outputs from it (flat memory)")
	fs.StringVar(&cfg.resumePath, "resume", "", "resume an interrupted -stream sweep from this run-log, skipping logged runs")
	cfg.RegisterQuiet(fs, "suppress per-run progress lines")
	cfg.RegisterOutputs(fs)
	cfg.RegisterObserve(fs, "stream NDJSON progress heartbeats to this file (- = stderr)",
		"serve expvar + pprof debug endpoints on this address (e.g. :6060)")
	cfg.RegisterProfile(fs, "sweep")
	flag.Usage = func() {
		w := fs.Output()
		fmt.Fprintf(w, "Usage of %s:\n\n", os.Args[0])
		fmt.Fprint(w, usageMatrix)
		fs.PrintDefaults()
	}
	flag.Parse()
	cfg.logPaths = flag.Args()

	if err := run(cfg, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// validate checks the whole mode matrix and returns the shard this process
// executes. Every flag-combination error surfaces here, before run creates
// or truncates any output.
func (cfg *config) validate() (mptcpsim.Shard, error) {
	whole := mptcpsim.Shard{K: 0, N: 1}
	if cfg.merge {
		if cfg.gridPath != "" || cfg.shard != "" || cfg.streamPath != "" || cfg.resumePath != "" {
			return whole, fmt.Errorf("-merge reads run-logs; it takes none of -grid/-shard/-stream/-resume")
		}
		if len(cfg.logPaths) == 0 {
			return whole, fmt.Errorf("-merge needs at least one run-log argument")
		}
		return whole, nil
	}
	if len(cfg.logPaths) > 0 {
		return whole, fmt.Errorf("unexpected arguments %v (run-logs are only read with -merge)", cfg.logPaths)
	}
	if cfg.streamPath != "" && cfg.resumePath != "" {
		return whole, fmt.Errorf("-stream starts a fresh run-log and -resume continues one; pass exactly one")
	}
	if cfg.shard == "" {
		return whole, nil
	}
	shard, err := mptcpsim.ParseShard(cfg.shard)
	if err != nil {
		return whole, err
	}
	if cfg.streamPath == "" && cfg.resumePath == "" {
		return whole, fmt.Errorf("-shard writes its slice of the grid as a run-log; name it with -stream (or continue one with -resume)")
	}
	if cfg.CSV != "" || cfg.Groups != "" || cfg.JSON != "" {
		return whole, fmt.Errorf("-csv/-groups/-json aggregate the whole grid; write them from -merge, not a shard")
	}
	return shard, nil
}

// run executes the whole command against the given streams: progress and
// timing go to stderr, the deterministic report to stdout.
//
// Every sweeping mode is one Stream into a sink chain. In memory, the
// results sink is a MemorySink; with -stream/-resume it is the run-log,
// appended run by run with nothing retained, and the report and output
// files are then rendered from the committed log in a merge-style second
// pass — byte-identical to the in-memory sweep.
func run(cfg config, stdout, stderr io.Writer) (err error) {
	shard, err := cfg.validate()
	if err != nil {
		return err
	}
	if cfg.workers <= 0 {
		// The pool the sweep really runs, for heartbeats and the timing line.
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	stopProf, err := cfg.StartProfile()
	if err != nil {
		return err
	}
	defer func() {
		// The sweep's own diagnostic wins over a failing profile teardown.
		if perr := stopProf(); err == nil {
			err = perr
		}
	}()
	if cfg.merge {
		return runMerge(cfg, stdout)
	}

	grid, err := cli.LoadGrid(cfg.gridPath)
	if err != nil {
		return err
	}
	if len(grid.Seeds) == 0 && cfg.seeds > 1 {
		for s := 1; s <= cfg.seeds; s++ {
			grid.Seeds = append(grid.Seeds, int64(s))
		}
	}
	if cfg.duration > 0 {
		grid.DurationMs = float64(cfg.duration) / float64(time.Millisecond)
	}
	if cfg.eventLimit > 0 {
		grid.Base.EventLimit = cfg.eventLimit
	}
	sweep := &mptcpsim.Sweep{Workers: cfg.workers, ValidateInvariants: cfg.check,
		// Flight dumps need the recorder attached to every run.
		Telemetry: cfg.telemetry || cfg.flightDir != ""}

	logPath, resume := cfg.streamPath, false
	if cfg.resumePath != "" {
		logPath, resume = cfg.resumePath, true
	}
	// The grid's digest and run count head the run-log and size the
	// heartbeat meter; an in-memory sweep without -progress needs neither
	// and skips this expansion.
	var header mptcpsim.RunLogHeader
	if logPath != "" || cfg.Progress != "" {
		digest, total, err := sweep.Describe(grid)
		if err != nil {
			return err
		}
		header = mptcpsim.RunLogHeader{GridDigest: digest, K: shard.K, N: shard.N, Total: total}
	}

	// The chain: results..., flight, meter, progress — a failed run's
	// flight notice precedes its progress line.
	var (
		mem   mptcpsim.MemorySink
		roll  mptcpsim.RollupSink
		log   *mptcpsim.ShardLog // nil for an in-memory sweep
		chain = []mptcpsim.RunSink{&mem, &roll}
	)
	if logPath != "" {
		if log, err = openLog(logPath, header, resume, stderr); err != nil {
			return err
		}
		defer log.File.Close()
		sink, err := log.Sink(0)
		if err != nil {
			return err
		}
		chain[0] = sink
	}
	if cfg.flightDir != "" {
		if err := cli.MakeFlightDir(cfg.flightDir); err != nil {
			return err
		}
		chain = append(chain, &cli.FlightSink{Dir: cfg.flightDir, Stderr: stderr})
	}
	meter, stopObserve, err := cfg.StartObserve(shard.Size(header.Total), cfg.workers, stderr)
	if err != nil {
		return err
	}
	defer stopObserve()
	spec := mptcpsim.StreamSpec{Shard: shard}
	resumed := 0
	if log != nil {
		spec.Skip = func(index int) bool { return log.Skip[index] }
		resumed = len(log.Skip)
	}
	if meter != nil {
		if resumed > 0 {
			meter.Resume(resumed, log.Errs)
		}
		chain = append(chain, &cli.MeterSink{Meter: meter})
	}
	if !cfg.Quiet {
		chain = append(chain, &cli.ProgressSink{W: stderr})
	}

	start := time.Now()
	if err := sweep.Stream(grid, spec, mptcpsim.MultiSink(chain...)); err != nil {
		return err
	}
	elapsed := time.Since(start).Round(time.Millisecond)

	var res *mptcpsim.SweepResult
	if log == nil {
		res = mem.Result()
		fmt.Fprintf(stderr, "completed %d runs in %v with %d workers\n", len(res.Runs), elapsed, cfg.workers)
	} else {
		if err := log.File.Close(); err != nil {
			return err
		}
		// Read the committed log back: the second pass trusts only what is
		// on disk, so the rendered outputs are exactly what a later -merge
		// of this log would produce.
		committed, err := mptcpsim.ReadShardLog(logPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "streamed %d runs (%d resumed from log) in %v with %d workers\n",
			len(committed.Runs)-resumed, resumed, elapsed, cfg.workers)
		if shard.N > 1 {
			// Groups and the overall gap describe the whole grid, so a
			// shard renders nothing; -merge does.
			fmt.Fprintln(stdout, "wrote", logPath)
			if n := committed.Errs(); n > 0 {
				return fmt.Errorf("%d of %d shard runs failed", n, len(committed.Runs))
			}
			return nil
		}
		if res, err = mptcpsim.MergeShards(committed.ShardResult()); err != nil {
			return err
		}
	}
	if sweep.Telemetry {
		if resumed > 0 {
			// The rollup covers only this execution's runs; attaching it
			// after a resume would report a partial grid as the whole.
			fmt.Fprintln(stderr, "telemetry rollup omitted: resume re-executed only the unlogged runs")
		} else {
			res.Telemetry = &roll.Rollup
		}
	}
	return cfg.Report(res, stdout)
}

// openLog opens the sweep's run-log — fresh for -stream, validated and
// positioned past the committed records for -resume — and words what the
// resume found.
func openLog(path string, header mptcpsim.RunLogHeader, resume bool, stderr io.Writer) (*mptcpsim.ShardLog, error) {
	log, err := mptcpsim.OpenShardLog(path, header, !resume)
	if err != nil {
		return nil, err
	}
	if log.HeaderTorn {
		fmt.Fprintf(stderr, "resume: %s: header torn, nothing to resume; re-executing the full shard\n", path)
	}
	if log.TornTail >= 0 {
		fmt.Fprintf(stderr, "resume: truncating torn trailing record at byte %d of %s; its run will be re-executed\n",
			log.TornTail, path)
	}
	return log, nil
}

// runMerge reassembles the run-logs named as arguments into the unsharded
// sweep result and renders the usual report and output files from it.
func runMerge(cfg config, stdout io.Writer) error {
	shards := make([]*mptcpsim.ShardResult, len(cfg.logPaths))
	for i, path := range cfg.logPaths {
		log, err := mptcpsim.ReadShardLog(path)
		if err != nil {
			return err
		}
		shards[i] = log.ShardResult()
	}
	res, err := mptcpsim.MergeShards(shards...)
	if err != nil {
		return err
	}
	return cfg.Report(res, stdout)
}
