// Command bench is the repository's benchmark: four workloads that drive
// the simulator the way its users do, four end-to-end metrics per workload,
// and a separate traced run that says which layer the time went to.
//
//	go run ./bench -seed 1 -out bench/out/a.json   every workload, 3 interleaved repetitions, then the traced runs
//	go run ./bench -workload paper_bulk -trace 0   one timed run of one workload (what BENCHMARK.json's command does)
//	go run ./bench -workload paper_bulk -trace 1   the traced run: per-layer metrics and the phase table
//	go run ./bench -compare a.json b.json          two -out files against the benchmark's bounds
//
// Simulated seconds are what the modelled network experiences
// (Options.Duration); host seconds are what the simulator takes. The
// simulator is deterministic per seed, so every simulated statistic and
// every count must repeat exactly; only host time is subject to noise.
// See README.md in this directory for the catalogue.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mptcpsim"
	"mptcpsim/internal/lp"
)

// metricDef declares one metric of BENCHMARK.json; the smoke test holds
// this table and that file to each other.
type metricDef struct {
	name, unit string
	// better and bound apply to end-to-end metrics only.
	better string
	bound  float64
}

var endToEnd = []metricDef{
	// Σ Options.Duration of completed runs ÷ the program's wall time in the
	// pass, as on the reference host (see calib.go).
	{"sim_s_per_s", "sim_s/s", "higher", 0.25},
	// getrusage user+sys ÷ simulated seconds, as on the reference host:
	// includes GC work that hides on the second core.
	{"cpu_ms_per_sim_s", "ms/sim_s", "lower", 0.25},
	// MemStats.TotalAlloc delta ÷ runs.
	{"alloc_kb_per_run", "KiB", "lower", 0.25},
	// Fresh process → ready to time, as on the reference host: program
	// start, scenario load, grid expansion and validation, scratch
	// directory, discarded warm-up pass.
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{name: "sim.events_fired", unit: "count"},
	{name: "sim.events_scheduled", unit: "count"},
	{name: "sim.dead_ratio", unit: "ratio"},
	{name: "sim.heap_peak", unit: "count"},
	{name: "sim.events_per_s", unit: "1/s"},
	{name: "sim.ns_per_event_h16", unit: "ns"},
	{name: "sim.ns_per_event_h256", unit: "ns"},
	{name: "sim.ns_per_event_h4096", unit: "ns"},
	{name: "sim.ns_per_rearm", unit: "ns"},
	{name: "sim.ns_per_batch_event", unit: "ns"},
	{name: "netem.tx_packets", unit: "count"},
	{name: "netem.drops", unit: "count"},
	{name: "netem.drop_ratio", unit: "ratio"},
	{name: "netem.ns_per_pkt_1hop", unit: "ns"},
	{name: "netem.ns_per_pkt_3hop", unit: "ns"},
	{name: "netem.ns_per_drop", unit: "ns"},
	{name: "route.ns_per_lookup_1tag", unit: "ns"},
	{name: "route.ns_per_lookup_8tag", unit: "ns"},
	{name: "tcp.retransmits", unit: "count"},
	{name: "tcp.rtos", unit: "count"},
	{name: "tcp.fast_recoveries", unit: "count"},
	{name: "tcp.retx_ratio", unit: "ratio"},
	{name: "tcp.ns_per_seg_clean", unit: "ns"},
	{name: "tcp.ns_per_seg_lossy", unit: "ns"},
	{name: "mptcp.sched_picks", unit: "count"},
	{name: "mptcp.dup_bytes_ratio", unit: "ratio"},
	{name: "mptcp.ns_per_seg_minrtt", unit: "ns"},
	{name: "mptcp.ns_per_seg_redundant", unit: "ns"},
	{name: "cc.ns_per_ack_cubic", unit: "ns"},
	{name: "cc.ns_per_ack_reno", unit: "ns"},
	{name: "cc.ns_per_ack_lia", unit: "ns"},
	{name: "cc.ns_per_ack_olia", unit: "ns"},
	{name: "cc.ns_per_ack_balia", unit: "ns"},
	{name: "cc.ns_per_ack_wvegas", unit: "ns"},
	{name: "lp.us_per_solve_cold", unit: "us"},
	{name: "lp.ns_per_hit", unit: "ns"},
	{name: "lp.cache_misses", unit: "count"},
	{name: "packet.ns_per_get_recycle", unit: "ns"},
	{name: "mptcpsim.expand_us_per_spec", unit: "us"},
	{name: "mptcpsim.build_us_per_run", unit: "us"},
	{name: "mptcpsim.baselines_us_per_run", unit: "us"},
	{name: "mptcpsim.run_fixed_us", unit: "us"},
	{name: "mptcpsim.run_us_per_run", unit: "us"},
	{name: "mptcpsim.run_self_pct", unit: "%"},
	{name: "mptcpsim.hash_us_per_run", unit: "us"},
	{name: "mptcpsim.sink_us_per_record", unit: "us"},
	{name: "mptcpsim.fsync_count", unit: "count"},
	{name: "mptcpsim.fsync_ms_total", unit: "ms"},
	{name: "mptcpsim.readlog_us_per_record", unit: "us"},
	{name: "mptcpsim.merge_us_per_run", unit: "us"},
	{name: "mptcpsim.report_us_per_run", unit: "us"},
	{name: "mptcpsim.run_ms_p50", unit: "ms"},
	{name: "mptcpsim.run_ms_p99", unit: "ms"},
	{name: "mptcpsim.peak_rss_mb", unit: "MiB"},
	{name: "mptcpsim.mean_gap_pct", unit: "%"},
	{name: "mptcpsim.goodput_mbps", unit: "Mbps"},
	{name: "stats.ns_per_online_add", unit: "ns"},
	{name: "telemetry.overhead_pct", unit: "%"},
	{name: "check.oracle_overhead_pct", unit: "%"},
	{name: "fleet.leases_granted", unit: "count"},
	{name: "fleet.ms_per_lease", unit: "ms"},
	{name: "fleet.overhead_pct", unit: "%"},
	{name: "trace.overhead_pct", unit: "%"},
}

// exactCounts are the per-layer metrics that come from the deterministic
// simulation rather than a clock: they must repeat exactly per seed, and
// -compare checks them for equality instead of a speed-up.
var exactCounts = []string{
	"sim.events_fired", "sim.events_scheduled", "sim.dead_ratio", "sim.heap_peak",
	"netem.tx_packets", "netem.drops", "netem.drop_ratio",
	"tcp.retransmits", "tcp.rtos", "tcp.fast_recoveries", "tcp.retx_ratio",
	"mptcp.sched_picks", "mptcp.dup_bytes_ratio", "lp.cache_misses",
	"mptcpsim.fsync_count", "mptcpsim.mean_gap_pct", "mptcpsim.goodput_mbps",
	"fleet.leases_granted",
}

// metric is one reported value, in the benchmark contract's shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one output check of a run.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

// result is everything one (workload, seed, trace) run found. Its first
// four fields are the contract's last-line object; the rest goes to the
// -detail file for the driver.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Digest is the results_digest: SHA-256 over every run's
	// Result.Hash() in index order.
	Digest string  `json:"results_digest"`
	Checks []check `json:"checks"`
	// Samples holds one value per timed pass (per set-up process for
	// setup_s) of each end-to-end metric; the Metrics above are their
	// medians. Under rawSpeed and hostSlowdown it also holds, per pass,
	// sim_s_per_s before normalisation and the slowdown it was divided by.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Phases is the traced pass's self-time table over PassS seconds of
	// Runs runs; Layers the micro-driver outcomes.
	Phases []phase       `json:"phases,omitempty"`
	PassS  float64       `json:"pass_s,omitempty"`
	Runs   int           `json:"runs,omitempty"`
	Layers []layerResult `json:"layers,omitempty"`
}

const (
	rawSpeed     = "raw_sim_s_per_s"
	hostSlowdown = "host_slowdown"
)

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the catalogue")
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Note = fmt.Sprintf(format, args...)
		r.Correct = false
	}
	r.Checks = append(r.Checks, c)
}

// config is one invocation's flags.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	quick     bool
	dir       string
	detail    string
	out       string
	setupOnly bool
	compare   bool
}

// hooks are the seams the smoke test reaches through.
type hooks struct {
	afterLogs func(paths []string)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, hooks{})) }

// childEnv marks a re-executed child. The smoke test's TestMain reads it
// to run main instead of the tests when the driver re-executes the test
// binary.
const childEnv = "MPTCPSIM_BENCH_CHILD"

func run(args []string, stdout, stderr io.Writer, h hooks) int {
	var cfg config
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "run this one workload in this process (default: drive every workload in child processes)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed: every grid is a pure function of it (7 is the held-out seed)")
	fs.Float64Var(&cfg.seconds, "seconds", 18, "how long a timed run keeps starting passes (BENCHMARK.json's run_seconds)")
	fs.IntVar(&cfg.trace, "trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&cfg.quick, "quick", false, "smoke-test sizes: 1 seed, 1/20 of every simulated duration, 1/64 of every op count, 1 timed child per workload")
	fs.StringVar(&cfg.dir, "dir", filepath.Join("bench", "out"), "scratch directory for run-logs, spools and span files")
	fs.StringVar(&cfg.detail, "detail", "", "also write the run's full result as JSON here")
	fs.StringVar(&cfg.out, "out", "", "driver: write every workload's aggregated result as JSON here")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "set up for -workload, print what the reference kernel's slices cost, and exit: what a timed run starts, in fresh processes, to sample setup_s")
	fs.BoolVar(&cfg.compare, "compare", false, "compare two -out files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two -out files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	// Seed 0 is the library's spelling of seed 1, so it would collide
	// with the next grid seed.
	if cfg.seed < 1 || cfg.seconds <= 0 || (cfg.trace != 0 && cfg.trace != 1) {
		fmt.Fprintln(stderr, "bench: need -seed >= 1, -seconds > 0, -trace 0|1")
		return 2
	}
	if cfg.workload == "" {
		return drive(cfg, stdout, stderr)
	}
	w := workloadByName(cfg.workload)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if err := os.MkdirAll(cfg.dir, 0o777); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	e := &env{dir: cfg.dir, afterLogs: h.afterLogs}
	if cfg.quick {
		e.full = sizeQuick
	}
	if cfg.setupOnly {
		// The set-up process runs the reference kernel between the runs of
		// its warm-up pass and reports what the slices cost, so that the
		// parent can take them out of the process's time and normalise it.
		e.ref = newRefMeter()
		e.ref.reset()
		if _, err := setUp(e, w, cfg.seed); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 2
		}
		if err := json.NewEncoder(stdout).Encode(e.ref.tot); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
		return 0
	}
	var res *result
	var err error
	if cfg.trace == 1 {
		res, err = tracedRun(e, w, cfg)
	} else {
		res, err = timedRun(e, w, cfg, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 2
	}
	if cfg.detail != "" {
		if err := writeJSON(cfg.detail, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	res.print(stdout)
	if !res.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// print writes the run for a reader, then the contract's one-line object
// last.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", r.Workload, r.Seed, r.Trace)
	fmt.Fprintf(w, "results_digest %s\n", r.Digest)
	fmt.Fprintf(w, "runs_attempted %d runs_failed %d\n", r.Attempted, r.Failed)
	bad := 0
	for _, c := range r.Checks {
		if !c.OK {
			bad++
			fmt.Fprintf(w, "check %s FAILED: %s\n", c.Name, c.Note)
		}
	}
	fmt.Fprintf(w, "checks %d passed %d failed\n", len(r.Checks)-bad, bad)
	if len(r.Phases) > 0 {
		printPhases(w, r.Phases, r.Runs)
	}
	if v := r.Samples[hostSlowdown]; len(v) > 0 {
		fmt.Fprintf(w, "host %.3f times slower than the reference host; raw sim_s_per_s %.6g\n", median(v), median(r.Samples[rawSpeed]))
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		// Only a NaN or Inf value fails to encode, and every ratio above
		// guards its divisor: this is a bug, not an outcome.
		panic(fmt.Sprintf("bench: result does not encode: %v", err))
	}
	fmt.Fprintf(w, "%s\n", line)
}

// printPhases prints the per-phase table: self time per run and share of
// all self time in the pass.
func printPhases(w io.Writer, phases []phase, runs int) {
	var total float64
	for _, p := range phases {
		total += p.SelfS
	}
	fmt.Fprintf(w, "%-10s %8s %12s %14s %7s\n", "phase", "spans", "self_s", "us_per_run", "share")
	for _, p := range phases {
		fmt.Fprintf(w, "%-10s %8d %12.4f %14.1f %6.1f%%\n",
			p.Name, p.Spans, p.SelfS, p.SelfS*1e6/float64(runs), 100*p.SelfS/total)
	}
}

// sample is the host cost of one pass.
type sample struct {
	wall, cpu  float64   // seconds, the reference kernel's slices not included
	alloc      uint64    // bytes
	lpProblems int       // distinct LP problems solved, from a cold cache
	ref        refTotals // the reference kernel's slices during the pass
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// measure runs one pass on the clock. The collection and the cache reset
// before it are off the clock: every pass starts from the same heap and a
// cold LP cache. ref, when not nil, is the meter the pass's sink ticks; its
// slices are taken out of the sample's wall and CPU time.
func measure(ref *refMeter, pass func() (*outcome, error)) (*outcome, sample, error) {
	runtime.GC()
	mptcpsim.ResetBaselineCache()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ref.reset()
	c0 := cpuSeconds()
	t0 := time.Now()
	u, err := pass()
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - c0
	runtime.ReadMemStats(&m1)
	smp := sample{alloc: m1.TotalAlloc - m0.TotalAlloc, lpProblems: lp.BaselineCacheSize()}
	if ref != nil {
		smp.ref = ref.tot
	}
	smp.wall, smp.cpu = wall-smp.ref.Wall, cpu-smp.ref.CPU
	return u, smp, err
}

// setupProcs is how many fresh processes a timed run sets up in; setup_s
// is their median.
const setupProcs = 3

// setUp does what a run pays before it can time anything: load the
// scenario and build the grid, expand and validate it, make the scratch
// directory, and push one small discarded pass through every code path.
func setUp(e *env, w *workload, seed int64) (*mptcpsim.Grid, error) {
	g, err := w.grid(seed, e.full)
	if err != nil {
		return nil, err
	}
	if _, _, err := (&mptcpsim.Sweep{}).Describe(g); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.dir, 0o777); err != nil {
		return nil, err
	}
	warmSize := sizeWarm
	if e.full == sizeQuick {
		warmSize = sizeQuick
	}
	warm, err := w.grid(seed, warmSize)
	if err != nil {
		return nil, err
	}
	warmEnv := *e
	warmEnv.afterLogs = nil
	if _, err := runPass(&warmEnv, w, warm); err != nil {
		return nil, fmt.Errorf("warm-up pass: %w", err)
	}
	return g, nil
}

func newResult(w *workload, cfg config) *result {
	return &result{
		Correct: true, Metrics: map[string]metric{},
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace == 1,
		Samples: map[string][]float64{},
	}
}

// tally adds a pass to the run's attempted/failed counts and checks it
// against the digest of the passes before it.
func (r *result) tally(what string, u *outcome) {
	r.Attempted += u.attempted
	r.Failed += u.failed()
	note := u.problem
	if note == "" && len(u.sink.errs) > 0 {
		note = strings.Join(u.sink.errs, "; ")
	}
	r.check(what+".runs_ok", u.failed() == 0 && u.problem == "", "%d of %d runs failed or are missing: %s", u.failed(), u.attempted, note)
	d := u.sink.digest()
	if r.Digest == "" {
		r.Digest = d
	}
	r.check(what+".digest", d == r.Digest, "results_digest %.12s differs from the first pass's %.12s", d, r.Digest)
}

// timeSetUp takes one setup_s sample: this binary re-executed to set up
// for the workload and exit, timed from before it starts. It has to be a
// fresh process. A second set-up in one process finds the heap grown, the
// arenas warm and every lazy initialisation done, so it would not show work
// that a later change moves out of the passes into start-up. The process
// reports the reference kernel's slices of its warm-up pass on its standard
// output; wall is the process's time without them.
func timeSetUp(w *workload, cfg config, stderr io.Writer) (wall float64, ref refTotals, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, ref, err
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10), "-dir", cfg.dir, "-setup-only"}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	t0 := time.Now()
	out, err := cmd.Output()
	wall = time.Since(t0).Seconds()
	if err != nil {
		return 0, ref, fmt.Errorf("set-up process: %w", err)
	}
	if err := json.Unmarshal(out, &ref); err != nil {
		return 0, ref, fmt.Errorf("set-up process's report: %w", err)
	}
	return wall - ref.Wall, ref, nil
}

// timedRun is a -trace 0 run: sample set-up, set up, time passes for
// cfg.seconds, verify.
func timedRun(e *env, w *workload, cfg config, stderr io.Writer) (*result, error) {
	res := newResult(w, cfg)
	for i := 0; i < setupProcs; i++ {
		s, ref, err := timeSetUp(w, cfg, stderr)
		if err != nil {
			return nil, err
		}
		res.Samples["setup_s"] = append(res.Samples["setup_s"], s/ref.slowdown())
	}
	g, err := setUp(e, w, cfg.seed)
	if err != nil {
		return nil, err
	}

	e.ref = newRefMeter()
	var first *outcome
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	// A pass is several seconds long, so the last one starts only if at
	// least half of it fits before the deadline: a run then measures for
	// cfg.seconds give or take half a pass.
	for n := 0; n == 0 || time.Until(deadline) >= time.Since(start)/time.Duration(2*n); n++ {
		u, smp, err := measure(e.ref, func() (*outcome, error) { return runPass(e, w, g) })
		if err != nil {
			return nil, err
		}
		res.tally(fmt.Sprintf("pass%d", n+1), u)
		if first == nil {
			first = u
		} else if !w.engine() {
			res.check(fmt.Sprintf("pass%d.outputs", n+1), u.out.equal(first.out), "merged outputs differ from the first pass's")
		}
		sim := u.simSeconds()
		if sim <= 0 {
			continue // every run failed; the checks above already say so
		}
		res.Samples["sim_s_per_s"] = append(res.Samples["sim_s_per_s"], sim/smp.wall*smp.ref.slowdown())
		res.Samples["cpu_ms_per_sim_s"] = append(res.Samples["cpu_ms_per_sim_s"], smp.cpu*1e3/sim/smp.ref.cpuSlowdown())
		res.Samples["alloc_kb_per_run"] = append(res.Samples["alloc_kb_per_run"], float64(smp.alloc)/1024/float64(u.attempted))
		res.Samples[rawSpeed] = append(res.Samples[rawSpeed], sim/smp.wall)
		res.Samples[hostSlowdown] = append(res.Samples[hostSlowdown], smp.ref.slowdown())
	}
	if err := res.verify(e, w, g, first); err != nil {
		return nil, err
	}
	for _, d := range endToEnd {
		res.set(endToEnd, d.name, median(res.Samples[d.name]))
	}
	return res, nil
}

// verify is the untimed output check of a run: engine workloads replay the
// grid under the invariant oracle, stream workloads compare their merged
// outputs byte for byte with an in-memory sweep of the same grid.
func (r *result) verify(e *env, w *workload, g *mptcpsim.Grid, first *outcome) error {
	if w.engine() {
		// Two seeds of the grid, not all: the oracle costs more than the
		// run it watches, and the traced run replays the whole grid under
		// it. A smaller grid has its own digest, so only its runs' errors
		// are tallied.
		few := *g
		few.Seeds = g.Seeds[:min(2, len(g.Seeds))]
		u, err := countPass(w, &few, passOpts{invariants: true})
		if err != nil {
			return err
		}
		r.Attempted += u.attempted
		r.Failed += u.failed()
		r.check("oracle.runs_ok", u.failed() == 0, "%d of %d runs failed under the invariant oracle: %s", u.failed(), u.attempted, strings.Join(u.sink.errs, "; "))
		return nil
	}
	ref, err := referencePass(w, g)
	if err != nil {
		return err
	}
	r.tally("reference", ref)
	r.check("outputs_identical", first.out.equal(ref.out), "merged CSV/groups/JSON/report differ from an in-memory sweep of the same grid")
	return nil
}

// tracedRun is a -trace 1 run: plain, traced, telemetry, oracle and plain
// passes over the same grid, then the layer micro-drivers.
func tracedRun(e *env, w *workload, cfg config) (*result, error) {
	res := newResult(w, cfg)
	res.Samples = nil
	g, err := setUp(e, w, cfg.seed)
	if err != nil {
		return nil, err
	}
	plain := func() (*outcome, error) { return runPass(e, w, g) }

	a, sa, err := measure(nil, plain)
	if err != nil {
		return nil, err
	}
	res.tally("plain1", a)

	b, sb, err := measure(nil, func() (*outcome, error) { return tracedPass(e, w, g, newTracer()) })
	if err != nil {
		return nil, err
	}
	res.tally("traced", b)

	// The telemetry pass supplies the exact counts; for the stream style
	// it is the in-memory reference sweep, since a run-log carries no
	// telemetry.
	var c, d *outcome
	var sc, sd sample
	if w.engine() {
		c, sc, err = measure(nil, func() (*outcome, error) { return countPass(w, g, passOpts{telemetry: true}) })
		if err != nil {
			return nil, err
		}
		res.tally("telemetry", c)
		d, sd, err = measure(nil, func() (*outcome, error) { return countPass(w, g, passOpts{invariants: true}) })
		if err != nil {
			return nil, err
		}
		res.tally("oracle", d)
	} else {
		c, err = referencePass(w, g)
		if err != nil {
			return nil, err
		}
		res.tally("reference", c)
		res.check("outputs_identical", a.out.equal(c.out), "merged CSV/groups/JSON/report differ from an in-memory sweep of the same grid")
		res.check("traced.outputs", b.out.equal(c.out), "the traced pass's merged outputs differ from the reference")
	}

	e2, se, err := measure(nil, plain)
	if err != nil {
		return nil, err
	}
	res.tally("plain2", e2)
	plainWall := (sa.wall + se.wall) / 2
	over := func(wall float64) float64 { return 100 * (wall - plainWall) / plainWall }

	for _, def := range perLayer {
		res.set(perLayer, def.name, 0)
	}
	set := func(name string, v float64) { res.set(perLayer, name, v) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	roll := c.roll
	set("sim.events_fired", float64(roll.EventsFired))
	set("sim.events_scheduled", float64(roll.EventsScheduled))
	set("sim.dead_ratio", 1-ratio(float64(roll.EventsFired), float64(roll.EventsScheduled)))
	set("sim.heap_peak", float64(roll.HeapPeak))
	set("sim.events_per_s", float64(a.sink.events+e2.sink.events)/(sa.wall+se.wall))
	set("netem.tx_packets", float64(roll.TxPackets))
	set("netem.drops", float64(roll.Drops))
	set("netem.drop_ratio", ratio(float64(roll.Drops), float64(roll.Offered)))
	set("tcp.retransmits", float64(roll.Retransmits))
	set("tcp.rtos", float64(roll.RTOs))
	set("tcp.fast_recoveries", float64(roll.FastRecoveries))
	set("tcp.retx_ratio", ratio(float64(a.sink.retrans), float64(a.sink.sentSegs)))
	set("mptcp.sched_picks", float64(roll.SchedPicks))
	set("mptcp.dup_bytes_ratio", ratio(float64(a.sink.dup), float64(a.sink.delivered)))
	set("lp.cache_misses", float64(sa.lpProblems))
	set("mptcpsim.mean_gap_pct", 100*a.sink.meanGap())
	set("mptcpsim.goodput_mbps", a.sink.meanMbps())
	p50, p99 := interArrival(a.sink.arrivals)
	set("mptcpsim.run_ms_p50", p50)
	set("mptcpsim.run_ms_p99", p99)
	set("trace.overhead_pct", over(sb.wall))
	if w.engine() {
		set("telemetry.overhead_pct", over(sc.wall))
		set("check.oracle_overhead_pct", over(sd.wall))
	}

	// The phase table, and the per-run numbers read off it.
	res.Phases = phaseTable(b.spans)
	res.PassS = sb.wall
	res.Runs = b.attempted
	runs := float64(b.attempted)
	var allSelf float64
	self := map[string]phase{}
	for _, p := range res.Phases {
		allSelf += p.SelfS
		self[p.Name] = p
	}
	perRun := func(name string) float64 { return self[name].SelfS * 1e6 / runs }
	set("mptcpsim.expand_us_per_spec", ratio(perRun("expand"), float64(self["expand"].Spans)))
	set("mptcpsim.build_us_per_run", perRun("build"))
	set("mptcpsim.baselines_us_per_run", perRun("baselines"))
	set("mptcpsim.run_us_per_run", perRun("run"))
	set("mptcpsim.run_self_pct", 100*ratio(self["run"].SelfS, allSelf))
	set("mptcpsim.hash_us_per_run", perRun("hash"))
	set("mptcpsim.sink_us_per_record", perRun("sink"))
	set("mptcpsim.readlog_us_per_record", perRun("readlog"))
	set("mptcpsim.merge_us_per_run", perRun("merge"))
	set("mptcpsim.report_us_per_run", perRun("report"))
	set("mptcpsim.fsync_count", float64(b.fsyncs))
	set("mptcpsim.fsync_ms_total", b.fsyncTime.Seconds()*1e3)
	if err := writeSpanFile(filepath.Join(e.dir, w.name+".spans.ndjson"), b.spans); err != nil {
		return nil, err
	}

	if !w.engine() {
		// The same grid through the fleet coordinator, against the plain
		// passes' shard streams.
		f, sf, err := measure(nil, func() (*outcome, error) { return fleetPass(e, w, g) })
		if err != nil {
			return nil, err
		}
		res.tally("fleet", f)
		res.check("fleet.outputs", f.out.equal(c.out), "the fleet pass's merged outputs differ from the reference")
		set("fleet.leases_granted", float64(f.leases))
		set("fleet.ms_per_lease", ratio(f.leaseTime.Seconds()*1e3, float64(f.leases)))
		set("fleet.overhead_pct", over(sf.wall))
	}

	res.Layers, err = runLayers(cfg.quick)
	if err != nil {
		return nil, err
	}
	for _, l := range res.Layers {
		set(l.Metric, l.Value)
	}
	set("mptcpsim.peak_rss_mb", peakRSSMiB())
	return res, nil
}

func writeSpanFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interArrival returns the median and 99th percentile gap between
// consecutive deliveries to the sink, in milliseconds — at one worker, the
// wall time of a run.
func interArrival(at []time.Time) (p50, p99 float64) {
	if len(at) < 2 {
		return 0, 0
	}
	gaps := make([]float64, len(at)-1)
	for i := range gaps {
		gaps[i] = at[i+1].Sub(at[i]).Seconds() * 1e3
	}
	sort.Float64s(gaps)
	return gaps[len(gaps)/2], gaps[(len(gaps)*99)/100]
}

// peakRSSMiB reads the process's resident high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), which is what the
// benchmark contract measures spread with.
func quartiles(v []float64) (q1, q3 float64, err error) {
	n := len(v)
	if n < 2 {
		return 0, 0, errors.New("quartiles need at least two samples")
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), nil
}
