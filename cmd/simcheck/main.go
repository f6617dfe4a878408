// Command simcheck is the randomized correctness harness. It has two
// modes sharing one generator, one worker pool and one determinism
// contract (reports are byte-identical across reruns and -workers).
//
// The plain mode generates N pseudo-random scenarios (seeded topologies
// with overlapping paths, congestion-control/scheduler/ordering draws,
// and valid dynamic-event timelines), runs each one twice with the
// invariant oracle attached, and asserts on every run:
//
//   - packet conservation per link, per flow and network-wide (including
//     link_down queue drains and frames cut mid-serialisation);
//   - per-epoch wire bytes within every link's capacity budget;
//   - FIFO arrival order on every link, across runtime delay changes;
//   - a non-negative optimality gap against the (piecewise) LP optimum;
//   - replay determinism: both runs must produce an identical canonical
//     Result hash.
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
// EWMA runs/s, ETA) to a file or stderr; -telemetry collects engine
// counters on the checked pass of every scenario — the replay pass stays
// plain, so the existing replay-hash equality doubles as a per-scenario
// proof that telemetry is observation-only; -flightdir dumps the
// flight-recorder tail (the last engine events) of every failing plain-
// mode scenario; -http serves expvar and pprof debug endpoints while the
// check runs.
//
// Exit codes are distinct per failure class (see -h): 1 scenario/run or
// invariant failure, 2 usage or file I/O error, 3 determinism failure
// (replay-hash or golden-corpus divergence), 4 trend violation.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"

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

// outcome is one plain-mode scenario's verdict.
type outcome struct {
	kind failKind
	line string
	// hash is the full canonical Result hash of a passing scenario (the
	// report line truncates it for readability; golden corpora need every
	// byte).
	hash string
}

// telemetryOn, when set, enables Options.Telemetry on the checked pass
// of every runTwice. The replay pass stays plain, so the existing
// replay-hash equality doubles as a per-scenario proof that telemetry is
// observation-only. flightDir, when non-empty, is where dumpFlight writes
// failing scenarios' flight-recorder tails. onScenario, when non-nil,
// observes every completed scenario or rung (true = failed) from worker
// goroutines — the seam the -progress meter hangs off (the meter carries
// its own mutex). All three are reassigned on every run() call.
var (
	telemetryOn bool
	flightDir   string
	onScenario  func(failed bool)
)

// runTwice executes one spec under the full contract — once with the
// invariant oracle attached, once plain, both on the one network the
// scenario builds, so hash equality also proves Run left it as it found
// it — and returns the validated result and its canonical hash, or the
// failure class and its message. On failure the returned result is the
// checked pass's (partial) result when one exists, so callers can dump its
// flight-recorder tail.
func runTwice(sp check.Spec) (*mptcpsim.Result, string, failKind, string) {
	nw, err := sp.Scenario.Build()
	if err != nil {
		return nil, "", kindRun, fmt.Sprintf("build: %v", err)
	}
	run := func(validate bool) (*mptcpsim.Result, error) {
		opts := sp.Options
		opts.ValidateInvariants = validate
		opts.Telemetry = telemetryOn && validate
		return mptcpsim.Run(nw, opts)
	}
	checked, err := run(true)
	if err != nil {
		return checked, "", kindRun, err.Error()
	}
	if len(checked.Invariants) > 0 {
		return checked, "", kindRun, "invariants: " + strings.Join(checked.Invariants, "; ")
	}
	replay, err := run(false)
	if err != nil {
		return checked, "", kindRun, fmt.Sprintf("replay: %v", err)
	}
	h := checked.Hash()
	if rh := replay.Hash(); rh != h {
		return checked, "", kindHash,
			fmt.Sprintf("replay hash %.12s != %.12s (non-deterministic run)", rh, h)
	}
	if r, c := replay.LoopEvents, checked.LoopEvents; r != c {
		return checked, "", kindHash, fmt.Sprintf("replay ran %d events, not %d (non-deterministic run)", r, c)
	}
	return checked, h, kindOK, ""
}

// dumpFlight writes a failing scenario's flight-recorder tail — the last
// engine events before the failure — to <flightDir>/flight-<i>.ndjson
// and returns a report-line note naming the file. Scenarios write
// distinct files, so concurrent workers never collide.
func dumpFlight(i int, res *mptcpsim.Result) string {
	if flightDir == "" {
		return ""
	}
	path, err := cli.DumpFlight(flightDir, i, res)
	if err != nil {
		return fmt.Sprintf(" (flight dump failed: %v)", err)
	}
	if path == "" {
		return ""
	}
	return " (flight tail: " + path + ")"
}

// checkSpec runs one generated spec under the full contract and verdicts
// it as a plain-mode report line.
func checkSpec(i int, base int64) outcome {
	sp := check.NewSpec(check.SpecSeed(base, i))
	res, h, kind, msg := runTwice(sp)
	if kind != kindOK {
		msg += dumpFlight(i, res)
		return outcome{kind: kind, line: fmt.Sprintf("%4d FAIL seed=%-19d %s: %s",
			i, sp.Seed, sp.Name, msg)}
	}
	return outcome{hash: h, line: fmt.Sprintf("%4d ok   seed=%-19d hash=%.12s %s",
		i, sp.Seed, h, sp.Name)}
}

// checkSpecFn is the plain-mode scenario runner; a test seam so failure
// paths (refused golden recording, per-class exit codes) can be driven
// without a genuinely broken simulator.
var checkSpecFn = checkSpec

// forEach fans fn(i) for i in [0,n) across a worker pool. Callers write
// results into index-addressed slots, so their output stays
// deterministic whatever the pool size — the seam the plain and trend
// modes share.
func forEach(n, workers int, fn func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// runCheck executes n scenarios across the worker pool and writes the
// deterministic report to w. It returns the per-class failure tally and
// every scenario's full hash ("" where the scenario failed). The report
// contains no wall-clock or worker-count data, so its bytes are
// identical for a given (n, seed) whatever the pool size.
func runCheck(n int, seed int64, workers int, quiet bool, w io.Writer) (tally, []string) {
	results := make([]outcome, n)
	forEach(n, workers, func(i int) {
		r := checkSpecFn(i, seed)
		results[i] = r
		if onScenario != nil {
			onScenario(r.kind != kindOK)
		}
	})

	fmt.Fprintf(w, "simcheck: %d scenarios, base seed %d\n", n, seed)
	var t tally
	hashes := make([]string, n)
	for i, r := range results {
		switch r.kind {
		case kindRun:
			t.run++
		case kindHash:
			t.hash++
		}
		hashes[i] = r.hash
		if !quiet || r.kind != kindOK {
			fmt.Fprintln(w, r.line)
		}
	}
	fmt.Fprintf(w, "simcheck: %d/%d scenarios passed", n-t.failed(), n)
	if t.failed() > 0 {
		fmt.Fprintf(w, ", %d FAILED", t.failed())
	}
	fmt.Fprintln(w)
	return t, hashes
}

// runRung executes one ladder rung under the full plain-mode contract
// and extracts the trend observables.
func runRung(sp check.Spec, path int) (check.RungObs, failKind) {
	res, h, kind, msg := runTwice(sp)
	if kind != kindOK {
		return check.RungObs{Err: msg}, kind
	}
	var total, onPath uint64
	for _, sf := range res.Subflows {
		total += sf.SentBytes
		if sf.Path == path {
			onPath += sf.SentBytes
		}
	}
	share := math.NaN()
	if total > 0 {
		share = float64(onPath) / float64(total)
	}
	return check.RungObs{
		GoodputBytes: res.DeliveredBytes,
		Gap:          res.Summary.Gap,
		Share:        share,
		Hash:         h,
	}, kindOK
}

// trendMutate, when non-nil, rewrites every derived ladder before its
// rungs run. It is a test-only seam: the broken-build test injects a
// model-level mutation (the loss ladder applied in inverted order —
// exactly what a sign flip in the loss path would produce) and asserts
// the trend oracle fails while every rung still passes replay-hash
// equality.
var trendMutate func(check.Ladder) check.Ladder

// runTrend derives nLadders perturbation ladders, runs every rung across
// the worker pool, evaluates the trend policy and writes the
// deterministic report. It returns the rung failure tally and the number
// of ladders with trend violations.
func runTrend(nLadders, steps int, seed int64, workers int, quiet bool, w io.Writer) (tally, int) {
	lads := make([]check.Ladder, nLadders)
	for i := range lads {
		l := check.NewLadder(seed, i, steps)
		if trendMutate != nil {
			l = trendMutate(l)
		}
		lads[i] = l
	}
	rungs := steps + 1
	obs := make([][]check.RungObs, nLadders)
	kinds := make([][]failKind, nLadders)
	for i := range obs {
		obs[i] = make([]check.RungObs, rungs)
		kinds[i] = make([]failKind, rungs)
	}
	forEach(nLadders*rungs, workers, func(j int) {
		li, k := j/rungs, j%rungs
		o, kd := runRung(lads[li].Rungs[k], lads[li].Path)
		obs[li][k], kinds[li][k] = o, kd
		if onScenario != nil {
			onScenario(kd != kindOK)
		}
	})

	pol := check.DefaultTrendPolicy(steps)
	fmt.Fprintf(w, "simcheck trend: %d ladders x %d steps, base seed %d\n", nLadders, steps, seed)
	var t tally
	trendFailed, ok := 0, 0
	for i := range lads {
		rep := check.TrendReport{Ladder: lads[i], Obs: obs[i]}
		rep.Evaluate(pol)
		for _, k := range kinds[i] {
			switch k {
			case kindRun:
				t.run++
			case kindHash:
				t.hash++
			}
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

// diffGolden compares the run's hashes against a recorded corpus and
// writes a deterministic verdict. It returns the number of divergences
// (mismatched hashes plus any shape mismatch).
func diffGolden(g check.Golden, seed int64, hashes []string, w io.Writer) int {
	if g.Seed != seed {
		fmt.Fprintf(w, "golden: corpus was recorded with base seed %d, run used %d\n", g.Seed, seed)
		return 1
	}
	if len(g.Hashes) != len(hashes) {
		fmt.Fprintf(w, "golden: corpus has %d hashes, run produced %d (use -n %d)\n",
			len(g.Hashes), len(hashes), len(g.Hashes))
		return 1
	}
	diverged := 0
	for i, want := range g.Hashes {
		if hashes[i] == want {
			continue
		}
		diverged++
		got := hashes[i]
		if got == "" {
			got = "(scenario failed)"
		}
		fmt.Fprintf(w, "golden: %4d DIVERGED want=%.12s got=%.12s\n", i, want, got)
	}
	if diverged == 0 {
		fmt.Fprintf(w, "golden: %d/%d hashes identical to corpus\n", len(g.Hashes), len(g.Hashes))
	} else {
		fmt.Fprintf(w, "golden: %d/%d hashes DIVERGED from corpus\n", diverged, len(g.Hashes))
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
		flight  = fs.String("flightdir", "", "dump failing scenarios' flight-recorder tails into this directory (plain mode; implies -telemetry)")
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
	case *trend && set["flightdir"]:
		return usage("-flightdir applies to the plain mode (trend rungs reuse plain-mode scenarios)")
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

	// Observability wiring. The package seams are reassigned on every
	// invocation so repeated run() calls (tests) start clean.
	telemetryOn = *telem || *flight != ""
	flightDir = *flight
	onScenario = nil
	if flightDir != "" {
		if err := cli.MakeFlightDir(flightDir); err != nil {
			return usage("%v", err)
		}
	}
	total := *n
	if *trend {
		total = *ladders * (*steps + 1)
	}
	meter, stopObserve, err := shared.StartObserve(total, *workers, stderr)
	if err != nil {
		return usage("%v", err)
	}
	defer stopObserve()
	if meter != nil {
		onScenario = func(failed bool) {
			n := 0
			if failed {
				n = 1
			}
			meter.Advance(1, n)
		}
	}
	stopProf, err := shared.StartProfile()
	if err != nil {
		return usage("%v", err)
	}

	var t tally
	trendFailed := 0
	var hashes []string
	if *trend {
		t, trendFailed = runTrend(*ladders, *steps, *seed, *workers, shared.Quiet, stdout)
	} else {
		t, hashes = runCheck(*n, *seed, *workers, shared.Quiet, stdout)
	}

	if err := stopProf(); err != nil {
		return usage("%v", err)
	}

	if *golden != "" {
		t.hash += diffGolden(corpus, *seed, hashes, stdout)
	}
	if *writeG != "" {
		if t.failed() > 0 {
			fmt.Fprintln(stderr, "simcheck: refusing to record a golden corpus from a failing run")
		} else {
			if err := cli.WriteFile(*writeG, func(w io.Writer) error {
				return check.WriteGolden(w, check.Golden{Seed: *seed, Hashes: hashes})
			}); err != nil {
				return usage("%v", err)
			}
			fmt.Fprintf(stderr, "simcheck: recorded %d hashes to %s\n", len(hashes), *writeG)
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
