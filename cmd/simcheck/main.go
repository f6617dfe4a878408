// Command simcheck is the randomized correctness harness. It has two
// modes sharing one generator, one executor and one determinism contract
// (reports are byte-identical across reruns and -workers).
//
// The plain mode generates N pseudo-random scenarios (seeded topologies
// with overlapping paths, congestion-control/scheduler/ordering draws,
// and valid dynamic-event timelines), runs each one twice, once with the
// invariant oracle attached and once plain, and asserts:
//
//   - packet conservation per link, per flow and network-wide (including
//     link_down queue drains and frames cut mid-serialisation);
//   - per-epoch wire bytes within every link's capacity budget;
//   - FIFO arrival order on every link, across runtime delay changes;
//   - a non-negative optimality gap against the (piecewise) LP optimum;
//   - replay determinism: both runs must produce an identical canonical
//     Result hash.
//
// Both modes make one mptcpsim.Sweep.Execute call: every scenario or rung
// expands once as a one-run grid (check.Spec.Grid), and its checked run
// (index i) and plain replay (index n+i) share that grid cell. Verdicts
// come from the recorded pairs after the sweep.
//
// A golden hash corpus locks the whole pipeline across performance work:
// -write-golden records every scenario's full canonical hash, -golden
// replays a recorded corpus and fails on any byte that moved.
//
// The trend mode (-trend) is the metamorphic oracle on top: exact
// invariants and replay hashes cannot tell a plausible simulator from a
// correct one (a deterministic bug is deterministically wrong), but
// qualitative trends can. For each of L ladders it derives K monotone
// perturbations of one knob on one link of one active path (loss up,
// delay up, capacity down, capacity up), runs every rung under the full
// plain-mode contract, and asserts direction-of-change properties within
// a noise tolerance: goodput monotone non-increasing on degrading
// ladders (non-decreasing on capacity-up), optimality gap non-widening
// against each rung's own LP baseline on capacity-down, and no load
// shift onto a degrading path for coupled congestion controllers.
//
//	simcheck -n 200 -seed 1
//	simcheck -n 200 -seed 1 -golden internal/check/testdata/hashes-seed1.golden
//	simcheck -trend -ladders 24 -steps 4 -seed 1
//
// Observability: -progress streams NDJSON heartbeats (done/total/failed,
// EWMA runs/s, ETA) to a file or stderr, counting runs, two per scenario
// or rung; -telemetry collects engine counters on the checked pass of
// every scenario — the replay pass stays plain, so the existing
// replay-hash equality doubles as a per-scenario proof that telemetry is
// observation-only; -flightdir dumps the flight-recorder tail (the last
// engine events) of every failed checked run to flight-<index>.ndjson and
// names the file on stderr; -http serves expvar and pprof debug endpoints
// while the check runs.
//
// Exit codes are distinct per failure class (see -h): 1 scenario/run or
// invariant failure, 2 usage or file I/O error, 3 determinism failure
// (replay-hash or golden-corpus divergence), 4 trend violation.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"mptcpsim"
	"mptcpsim/internal/check"
	"mptcpsim/internal/cli"
)

// Exit codes, one per failure class, so CI and scripts can tell what
// kind of wrongness a red run found without parsing the report. When
// failures of several classes occur in one invocation, the lowest code
// wins (the more fundamental failure).
const (
	exitOK    = 0
	exitFail  = 1 // scenario build/run error or invariant violation
	exitUsage = 2 // flag usage or file I/O error
	exitHash  = 3 // replay-hash mismatch or golden-corpus divergence
	exitTrend = 4 // metamorphic trend violation
)

const exitCodeDoc = `
Exit codes:
  0  success
  1  a scenario failed: build/run error or invariant violation
  2  usage or file I/O error
  3  determinism failure: replay-hash mismatch or golden-corpus divergence
  4  metamorphic trend violation (-trend)
When failures of several classes occur, the lowest code wins.
`

// failKind classifies a scenario or rung failure into its exit class.
type failKind int

const (
	kindOK   failKind = iota
	kindRun           // build/run error or invariant violation -> exitFail
	kindHash          // replay-hash divergence -> exitHash
)

// tally counts failures per class across a whole mode.
type tally struct{ run, hash int }

func (t tally) failed() int { return t.run + t.hash }

func (t *tally) add(k failKind) {
	switch k {
	case kindRun:
		t.run++
	case kindHash:
		t.hash++
	}
}

// record is what the recorder keeps of one run: its error, hashes and
// trend observables, and the number of events it executed.
type record struct {
	check.RungObs
	events uint64
}

// recorder is the sink that keeps the record of every run at its index:
// the checked runs in the first half, their replays in the second.
// path[i], when set, is the path whose share of sent bytes checked run i
// records (trend mode).
type recorder struct {
	runs []record
	path []int
}

func (r *recorder) Accept(_, _ int, s mptcpsim.RunSummary, res *mptcpsim.Result) error {
	rec := record{RungObs: check.RungObs{Err: s.Err}}
	if s.Err == "" {
		rec.Hash, rec.events = res.Hash(), res.LoopEvents
		if s.Index < len(r.runs)/2 { // a replay is compared by hash and events alone
			rec.Engine = res.EngineHash()
		}
		rec.GoodputBytes, rec.Gap, rec.Optimum = res.DeliveredBytes, res.Summary.Gap, res.Optimum.Total
		if s.Index < len(r.path) {
			var total, onPath uint64
			for _, sf := range res.Subflows {
				total += sf.SentBytes
				if sf.Path == r.path[s.Index] {
					onPath += sf.SentBytes
				}
			}
			rec.Share = math.NaN()
			if total > 0 {
				rec.Share = float64(onPath) / float64(total)
			}
		}
	}
	r.runs[s.Index] = rec
	return nil
}

func (r *recorder) Close() error { return nil }

// harness is what both modes hand the sweep: its pool size, whether the
// checked runs collect telemetry, and the observer sinks (flight dumps,
// heartbeats) that follow the recorder in its chain.
type harness struct {
	workers   int
	telemetry bool
	observers []mptcpsim.RunSink
}

// mutateRuns, when non-nil, rewrites the run list before it executes: a
// test seam that breaks chosen runs (a checked run that cannot finish, a
// replay that does not replay) without a broken simulator.
var mutateRuns func([]mptcpsim.RunSpec)

// check runs every spec under the full contract in one Sweep.Execute:
// spec i as a checked run at index i (the invariant oracle on, telemetry
// too when asked) and as a plain replay at index n+i on the same cell, both
// under the spec's event limit, so hash equality also proves a run leaves
// its network as it found it. It returns each spec's checked observables,
// Err holding why it failed, and its failure class. path is the recorder's
// (nil in plain mode).
func (h *harness) check(specs []check.Spec, path []int) ([]check.RungObs, []failKind) {
	n := len(specs)
	obs := make([]check.RungObs, n)
	kinds := make([]failKind, n)
	var runs, replays []mptcpsim.RunSpec
	for i, sp := range specs {
		rs, err := sp.Grid().Expand()
		if err != nil {
			obs[i].Err, kinds[i] = fmt.Sprintf("build: %v", err), kindRun
			continue
		}
		run := rs[0]
		run.Options.EventLimit = sp.Options.EventLimit
		run.Index = n + i
		replays = append(replays, run)
		run.Index = i
		run.Options.ValidateInvariants = true
		run.Options.Telemetry = h.telemetry
		runs = append(runs, run)
	}
	runs = append(runs, replays...)
	if mutateRuns != nil {
		mutateRuns(runs)
	}

	rec := &recorder{runs: make([]record, 2*n), path: path}
	chain := append([]mptcpsim.RunSink{rec}, h.observers...)
	// No sink in the chain can fail.
	_ = (&mptcpsim.Sweep{Workers: h.workers}).Execute(runs, mptcpsim.MultiSink(chain...))

	for i := range specs {
		if kinds[i] != kindOK {
			continue // never expanded
		}
		c, r := rec.runs[i], rec.runs[n+i]
		obs[i] = c.RungObs
		fail := func(k failKind, format string, a ...any) {
			obs[i], kinds[i] = check.RungObs{Err: fmt.Sprintf(format, a...)}, k
		}
		switch {
		case c.Err != "":
			kinds[i] = kindRun
		case r.Err != "":
			fail(kindRun, "replay: %s", r.Err)
		case r.Hash != c.Hash:
			fail(kindHash, "replay hash %.12s != %.12s (non-deterministic run)", r.Hash, c.Hash)
		case r.events != c.events:
			fail(kindHash, "replay ran %d events, not %d (non-deterministic run)", r.events, c.events)
		}
	}
	return obs, kinds
}

// runCheck executes n scenarios and writes the deterministic report to w.
// It returns the per-class failure tally and the corpus of every
// scenario's full hash and engine digest ("" where the scenario failed).
// The report contains no wall-clock or worker-count data, so its bytes are
// identical for a given (n, seed) whatever the pool size.
func runCheck(n int, seed int64, h harness, quiet bool, w io.Writer) (tally, check.Golden) {
	specs := make([]check.Spec, n)
	for i := range specs {
		specs[i] = check.NewSpec(check.SpecSeed(seed, i))
	}
	obs, kinds := h.check(specs, nil)

	fmt.Fprintf(w, "simcheck: %d scenarios, base seed %d\n", n, seed)
	var t tally
	got := check.Golden{Seed: seed, Hashes: make([]string, n), Engine: make([]string, n)}
	for i, sp := range specs {
		t.add(kinds[i])
		if kinds[i] != kindOK {
			fmt.Fprintf(w, "%4d FAIL seed=%-19d %s: %s\n", i, sp.Seed, sp.Name, obs[i].Err)
			continue
		}
		// The report line truncates the hash for readability; golden
		// corpora need every byte.
		got.Hashes[i], got.Engine[i] = obs[i].Hash, obs[i].Engine
		if !quiet {
			fmt.Fprintf(w, "%4d ok   seed=%-19d hash=%.12s %s\n", i, sp.Seed, obs[i].Hash, sp.Name)
		}
	}
	fmt.Fprintf(w, "simcheck: %d/%d scenarios passed", n-t.failed(), n)
	if t.failed() > 0 {
		fmt.Fprintf(w, ", %d FAILED", t.failed())
	}
	fmt.Fprintln(w)
	return t, got
}

// trendMutate, when non-nil, rewrites every derived ladder before its
// rungs run. It is a test-only seam: the broken-build test injects a
// model-level mutation (the loss ladder applied in inverted order —
// exactly what a sign flip in the loss path would produce) and asserts
// the trend oracle fails while every rung still passes replay-hash
// equality.
var trendMutate func(check.Ladder) check.Ladder

// runTrend derives nLadders perturbation ladders, runs every rung under
// the full plain-mode contract, evaluates the trend policy and writes the
// deterministic report. It returns the rung failure tally and the number
// of ladders with trend violations.
func runTrend(nLadders, steps int, seed int64, h harness, quiet bool, w io.Writer) (tally, int) {
	rungs := steps + 1
	lads := make([]check.Ladder, nLadders)
	specs := make([]check.Spec, 0, nLadders*rungs)
	var path []int
	for i := range lads {
		l := check.NewLadder(seed, i, steps)
		if trendMutate != nil {
			l = trendMutate(l)
		}
		lads[i] = l
		specs = append(specs, l.Rungs...)
		for range l.Rungs {
			path = append(path, l.Path)
		}
	}
	obs, kinds := h.check(specs, path)

	fmt.Fprintf(w, "simcheck trend: %d ladders x %d steps, base seed %d\n", nLadders, steps, seed)
	var t tally
	trendFailed, ok := 0, 0
	for i := range lads {
		rep := check.TrendReport{Ladder: lads[i], Obs: obs[i*rungs : (i+1)*rungs]}
		rep.Evaluate()
		for _, k := range kinds[i*rungs : (i+1)*rungs] {
			t.add(k)
		}
		if len(rep.Violations) > 0 {
			trendFailed++
		}
		if rep.OK() {
			ok++
			if !quiet {
				rep.Write(w)
			}
		} else {
			rep.Write(w)
		}
	}
	fmt.Fprintf(w, "simcheck trend: %d/%d ladders passed", ok, nLadders)
	if ok < nLadders {
		fmt.Fprintf(w, ", %d FAILED", nLadders-ok)
	}
	fmt.Fprintln(w)
	return t, trendFailed
}

// diffGolden compares the run's corpus against a recorded one and writes a
// deterministic verdict. Each divergence says whether the packets moved
// (the engine digests differ) or only the references they are compared to,
// and the closing line counts the divergences of each kind. It returns the
// number of divergences (mismatched scenarios plus any shape mismatch).
func diffGolden(g, got check.Golden, w io.Writer) int {
	if g.Seed != got.Seed {
		fmt.Fprintf(w, "golden: corpus was recorded with base seed %d, run used %d\n", g.Seed, got.Seed)
		return 1
	}
	if len(g.Hashes) != len(got.Hashes) {
		fmt.Fprintf(w, "golden: corpus has %d hashes, run produced %d (use -n %d)\n",
			len(g.Hashes), len(got.Hashes), len(g.Hashes))
		return 1
	}
	count := make(map[string]int) // divergences per kind
	for i, want := range g.Hashes {
		if what := g.Divergence(got, i); what != "" {
			count[what]++
			fmt.Fprintf(w, "golden: %4d DIVERGED (%s) want=%.12s got=%.12s\n",
				i, what, want, cmp.Or(got.Hashes[i], "(scenario failed)"))
		}
	}
	moved, refs := count["engine moved"], count["references only"]
	diverged := moved + refs
	if diverged == 0 {
		fmt.Fprintf(w, "golden: %d/%d hashes identical to corpus\n", len(g.Hashes), len(g.Hashes))
	} else {
		fmt.Fprintf(w, "golden: %d/%d hashes DIVERGED from corpus (%d engine moved, %d references only)\n",
			diverged, len(g.Hashes), moved, refs)
	}
	return diverged
}

// run is the whole CLI behind a testable seam: parse args, execute the
// selected mode, and map the findings onto the documented exit codes.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var shared cli.Flags
	fs.BoolVar(&shared.Quiet, "q", false, "only print failing scenarios/ladders and the summary")
	shared.RegisterProfile(fs, "check")
	shared.RegisterObserve(fs, "stream NDJSON progress heartbeats to this file (- = stderr)",
		"serve expvar and pprof debug endpoints on this address (e.g. localhost:0)")
	var (
		n       = fs.Int("n", 200, "number of random scenarios (plain mode)")
		seed    = fs.Int64("seed", 1, "base seed; scenario/ladder i derives from check.SpecSeed(seed, i)")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel worker goroutines")
		golden  = fs.String("golden", "", "compare every hash against this recorded corpus; any divergence fails")
		writeG  = fs.String("write-golden", "", "record the corpus of full hashes to this path (all scenarios must pass)")
		trend   = fs.Bool("trend", false, "metamorphic trend mode: run perturbation ladders instead of plain scenarios")
		ladders = fs.Int("ladders", 24, "trend mode: number of perturbation ladders")
		steps   = fs.Int("steps", 4, "trend mode: perturbation steps per ladder (each ladder runs steps+1 rungs)")
		telem   = fs.Bool("telemetry", false, "collect engine telemetry on every checked pass (replays stay plain, so hash equality also proves telemetry is observation-only)")
		flight  = fs.String("flightdir", "", "dump failed runs' flight-recorder tails into this directory (implies -telemetry)")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: simcheck [flags]")
		fs.PrintDefaults()
		fmt.Fprint(stderr, exitCodeDoc)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "simcheck: "+format+"\n", a...)
		return exitUsage
	}
	switch {
	case *trend && (set["golden"] || set["write-golden"]):
		return usage("-trend is incompatible with -golden/-write-golden (hash corpora belong to the plain mode)")
	case *trend && set["n"]:
		return usage("-n applies to the plain mode; size trend runs with -ladders and -steps")
	case !*trend && (set["ladders"] || set["steps"]):
		return usage("-ladders/-steps require -trend")
	case *trend && *ladders <= 0:
		return usage("-ladders must be positive")
	case *trend && *steps <= 0:
		return usage("-steps must be positive")
	case !*trend && *n <= 0:
		return usage("-n must be positive")
	case *golden != "" && *writeG != "":
		return usage("-golden and -write-golden are mutually exclusive")
	}
	var corpus check.Golden
	if *golden != "" {
		f, err := os.Open(*golden)
		if err != nil {
			return usage("%v", err)
		}
		corpus, err = check.LoadGolden(f)
		f.Close()
		if err != nil {
			return usage("%v", err)
		}
	}

	h := harness{workers: *workers, telemetry: *telem || *flight != ""}
	if h.workers <= 0 {
		// The pool the sweep really runs, for the heartbeats.
		h.workers = runtime.GOMAXPROCS(0)
	}
	if *flight != "" {
		if err := cli.MakeFlightDir(*flight); err != nil {
			return usage("%v", err)
		}
		h.observers = append(h.observers, &cli.FlightSink{Dir: *flight, Stderr: stderr})
	}
	// A run is a checked pass or its replay: two per scenario or rung.
	total := 2 * *n
	if *trend {
		total = 2 * *ladders * (*steps + 1)
	}
	meter, stopObserve, err := shared.StartObserve(total, h.workers, stderr)
	if err != nil {
		return usage("%v", err)
	}
	defer stopObserve()
	if meter != nil {
		h.observers = append(h.observers, &cli.MeterSink{Meter: meter})
	}
	stopProf, err := shared.StartProfile()
	if err != nil {
		return usage("%v", err)
	}

	var t tally
	trendFailed := 0
	var got check.Golden
	if *trend {
		t, trendFailed = runTrend(*ladders, *steps, *seed, h, shared.Quiet, stdout)
	} else {
		t, got = runCheck(*n, *seed, h, shared.Quiet, stdout)
	}

	if err := stopProf(); err != nil {
		return usage("%v", err)
	}

	if *golden != "" {
		t.hash += diffGolden(corpus, got, stdout)
	}
	if *writeG != "" {
		if t.failed() > 0 {
			fmt.Fprintln(stderr, "simcheck: refusing to record a golden corpus from a failing run")
		} else {
			if err := cli.WriteFile(*writeG, func(w io.Writer) error {
				return check.WriteGolden(w, got)
			}); err != nil {
				return usage("%v", err)
			}
			fmt.Fprintf(stderr, "simcheck: recorded %d hashes to %s\n", len(got.Hashes), *writeG)
		}
	}
	switch {
	case t.run > 0:
		return exitFail
	case t.hash > 0:
		return exitHash
	case trendFailed > 0:
		return exitTrend
	}
	return exitOK
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
