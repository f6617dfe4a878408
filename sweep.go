package mptcpsim

import (
	"runtime"
	"strconv"
	"strings"
	"sync"

	"mptcpsim/internal/stats"
	"mptcpsim/internal/telemetry"
)

// RunSummary records the outcome of one sweep run: the grid coordinates,
// the LP baseline, and the convergence/optimality metrics. It contains no
// wall-clock data, so serialised sweep output is bit-identical across
// worker counts.
type RunSummary struct {
	Index        int     `json:"index"`
	Scenario     string  `json:"scenario"`
	Perturbation string  `json:"perturbation"`
	Events       string  `json:"events,omitempty"`
	CC           string  `json:"cc"`
	Scheduler    string  `json:"scheduler"`
	Order        []int   `json:"order,omitempty"`
	Seed         int64   `json:"seed"`
	OptimumMbps  float64 `json:"optimum_mbps"`
	// TargetMbps is the optimality target Gap was computed against: equal
	// to OptimumMbps for static cells, the time-weighted piecewise optimum
	// for cells with capacity events.
	TargetMbps float64 `json:"target_mbps"`
	GreedyMbps float64 `json:"greedy_mbps"`
	TotalMbps  float64 `json:"total_mbps"`
	// Gap is the optimality gap versus TargetMbps (0 = optimal,
	// 0.25 = 25% below).
	Gap          float64   `json:"gap"`
	Converged    bool      `json:"converged"`
	ConvergedAtS float64   `json:"converged_at_s,omitempty"`
	PostCoV      float64   `json:"post_cov"`
	PathMbps     []float64 `json:"path_mbps,omitempty"`
	// Err records a per-run failure; the rest of the sweep continues.
	Err string `json:"err,omitempty"`
}

// OrderString renders the subflow ordering ("2-1-3"; "auto" when the run
// used path-definition order).
func (r RunSummary) OrderString() string { return orderString(r.Order) }

func orderString(order []int) string {
	if len(order) == 0 {
		return "auto"
	}
	parts := make([]string, len(order))
	for i, p := range order {
		parts[i] = strconv.Itoa(p)
	}
	return strings.Join(parts, "-")
}

// GroupStats aggregates the runs sharing one (scenario, perturbation,
// events, CC, scheduler) cell over orderings and seeds.
type GroupStats struct {
	Scenario     string `json:"scenario"`
	Perturbation string `json:"perturbation"`
	Events       string `json:"events,omitempty"`
	CC           string `json:"cc"`
	Scheduler    string `json:"scheduler"`
	// Runs counts completed runs in the cell, Errors failed ones.
	Runs   int `json:"runs"`
	Errors int `json:"errors,omitempty"`
	// Converged counts runs that reached the optimum band.
	Converged int `json:"converged"`
	// Gap, TotalMbps and ConvergedAtS summarise the per-run metrics
	// (ConvergedAtS over converged runs only).
	Gap          stats.Agg `json:"gap"`
	TotalMbps    stats.Agg `json:"total_mbps"`
	ConvergedAtS stats.Agg `json:"converged_at_s"`
}

// SweepResult is the aggregate outcome of a sweep. Runs are in grid
// expansion order; Groups aggregate over orderings and seeds in
// first-appearance order; Gap summarises all completed runs. The value is
// identical for any worker count.
type SweepResult struct {
	Runs   []RunSummary `json:"runs"`
	Groups []GroupStats `json:"groups"`
	// Gap aggregates the optimality gap across every completed run.
	Gap stats.Agg `json:"gap"`
	// Telemetry is the engine-counter rollup across every run when
	// Sweep.Telemetry is set (sums and maxima only, so it is identical
	// for any worker count). Not carried through run-logs: a log written
	// with telemetry on must stay byte-identical to one written without.
	Telemetry *telemetry.Rollup `json:"telemetry,omitempty"`
}

// Sweep executes an expanded grid across a pool of worker goroutines. Each
// run is an independent virtual-time simulation, so the sweep is
// embarrassingly parallel; results land at their grid index, making the
// output deterministic regardless of Workers.
//
// Stream is the one execution path: it feeds every completed run to a
// RunSink chain and retains nothing. Run is Stream into a MemorySink.
type Sweep struct {
	// Workers is the goroutine pool size; 0 means GOMAXPROCS.
	Workers int
	// ValidateInvariants turns every run into a self-checking one: the
	// correctness oracle (see Options.ValidateInvariants) audits each run
	// and any violation is recorded as that run's Err, failing the cell
	// without aborting the sweep.
	ValidateInvariants bool
	// Telemetry enables Options.Telemetry on every run, so sinks see each
	// run's counter rollup (and a failed run's flight-recorder tail) in the
	// full Result; Run merges the rollups into SweepResult.Telemetry.
	// Observation-only: run hashes are unchanged.
	Telemetry bool
}

// Run expands the grid and executes every point. Individual run failures
// are recorded in the corresponding RunSummary.Err and do not abort the
// sweep; only structural problems (bad grid, bad scenario) return an
// error. Memory is linear in grid size — for grids too large to hold,
// use Stream.
func (s *Sweep) Run(g *Grid) (*SweepResult, error) {
	mem, roll := &MemorySink{}, &RollupSink{}
	if err := s.Stream(g, StreamSpec{}, MultiSink(mem, roll)); err != nil {
		return nil, err
	}
	res := mem.Result()
	if s.Telemetry {
		res.Telemetry = &roll.Rollup
	}
	return res, nil
}

// StreamSpec selects which slice of the grid a streaming sweep executes.
type StreamSpec struct {
	// Shard restricts execution to the runs of one shard (expansion index
	// % N == K); the zero value means the whole grid (shard 0/1).
	Shard Shard
	// Skip, when set, drops already-completed runs from execution — the
	// resume filter. Skipped runs never execute, are never delivered to
	// the sink, and do not count toward its done/total.
	Skip func(index int) bool
}

// Stream executes the grid (or one shard of it) without accumulating
// anything: every completed run is handed to the sink and released, so
// peak memory is flat in grid size — the entry point for mega-sweeps
// whose run-logs (LogSink) replace the in-memory SweepResult; the cell
// statistics come from merging those logs (MergeShards) afterwards. The
// sweep-level ValidateInvariants flag folds into the digest identity (see
// Describe), so logs only merge across matching run settings. Stream closes the sink exactly once, after the last
// delivery or on a structural error before the first; per-run failures land
// in their RunSummary.Err as always, and the returned error reports
// structural problems or the first sink failure, which also stops the
// sweep: runs not yet started never execute. A Close error is returned
// only when nothing failed before it.
func (s *Sweep) Stream(g *Grid, spec StreamSpec, sink RunSink) (err error) {
	defer func() {
		if cerr := sink.Close(); err == nil {
			err = cerr
		}
	}()
	shard := spec.Shard
	if shard.N == 0 {
		shard = Shard{K: 0, N: 1}
	}
	if err = shard.Validate(); err != nil {
		return err
	}
	specs, err := s.expandFolded(g)
	if err != nil {
		return err
	}
	var mine []RunSpec
	for _, sp := range specs {
		if sp.Index%shard.N != shard.K {
			continue
		}
		if spec.Skip != nil && spec.Skip(sp.Index) {
			continue
		}
		mine = append(mine, sp)
	}
	return s.execute(mine, sink)
}

// Describe expands the grid and returns its canonical digest and total
// run count under this sweep's settings — the header values a run-log
// needs before the first run completes. The digest folds the sweep-level
// ValidateInvariants flag exactly as Stream executes it, so run-logs only
// merge across matching run settings.
func (s *Sweep) Describe(g *Grid) (digest string, total int, err error) {
	specs, err := s.expandFolded(g)
	if err != nil {
		return "", 0, err
	}
	return specsDigest(specs), len(specs), nil
}

// execute runs the specs across the worker pool, feeding every completion
// to the sink — the single dispatch point every results surface hangs off.
// Workers take specs in order and deliver completions under one lock:
// Accept calls never overlap, done is monotone, and each run is delivered
// exactly once. The first sink error ends the sweep: no further spec is
// dispatched, the runs already in flight finish undelivered, and that
// error is returned.
func (s *Sweep) execute(specs []RunSpec, sink RunSink) error {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}

	var (
		mu         sync.Mutex
		next, done int
		sinkErr    error
		wg         sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			mu.Lock()
			for sinkErr == nil && next < len(specs) {
				spec := specs[next]
				next++
				mu.Unlock()
				if s.Telemetry {
					spec.Options.Telemetry = true
				}
				summary, full := runSpec(spec)
				mu.Lock()
				done++
				if sinkErr == nil {
					sinkErr = sink.Accept(done, len(specs), summary, full)
				}
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return sinkErr
}

// runSpec executes one grid point: the cell's one preparation, shared with
// the cell's other runs wherever they execute, then this run's simulation.
func runSpec(spec RunSpec) (RunSummary, *Result) {
	// Label the summary with the effective options so defaults stay
	// single-sourced in withDefaults, and with canonical spellings so two
	// sweeps written with different aliases label cells identically.
	eff := spec.Options.withDefaults()
	summary := RunSummary{
		Index:        spec.Index,
		Scenario:     spec.Scenario,
		Perturbation: spec.Perturbation,
		Events:       spec.Events,
		CC:           strings.ToLower(eff.CC),
		Scheduler:    canonicalSchedName(eff.Scheduler),
		Order:        spec.Options.SubflowPaths,
		Seed:         eff.Seed,
	}
	var r *Result
	pre, err := spec.cell.prepared()
	if err == nil {
		r, err = pre.simulate(eff)
	}
	if err != nil {
		summary.Err = err.Error()
		// With telemetry on, a mid-run abort still yields a partial
		// result carrying the flight-recorder tail.
		return summary, r
	}
	if len(r.Invariants) > 0 {
		summary.Err = "invariants violated: " + strings.Join(r.Invariants, "; ")
		return summary, r
	}
	summary.OptimumMbps = r.Optimum.Total
	summary.TargetMbps = r.Summary.Target
	summary.GreedyMbps = total(r.Greedy)
	summary.TotalMbps = r.Summary.TotalMean
	summary.Gap = r.Summary.Gap
	summary.Converged = r.Summary.Converged
	if r.Summary.Converged {
		summary.ConvergedAtS = r.Summary.ConvergedAt.Seconds()
	}
	summary.PostCoV = r.Summary.PostCoV
	summary.PathMbps = r.Summary.PathMeans
	return summary, r
}

// aggregate fills Groups and the overall Gap from Runs.
func (r *SweepResult) aggregate() {
	type key struct{ scenario, pert, events, cc, sched string }
	groups := make(map[key]int)
	var (
		orderKeys []key
		gaps      = make(map[key][]float64)
		totals    = make(map[key][]float64)
		convAts   = make(map[key][]float64)
		allGaps   []float64
	)
	r.Groups = nil
	for _, run := range r.Runs {
		k := key{run.Scenario, run.Perturbation, run.Events, run.CC, run.Scheduler}
		gi, ok := groups[k]
		if !ok {
			gi = len(r.Groups)
			groups[k] = gi
			orderKeys = append(orderKeys, k)
			r.Groups = append(r.Groups, GroupStats{
				Scenario:     run.Scenario,
				Perturbation: run.Perturbation,
				Events:       run.Events,
				CC:           run.CC,
				Scheduler:    run.Scheduler,
			})
		}
		g := &r.Groups[gi]
		if run.Err != "" {
			g.Errors++
			continue
		}
		g.Runs++
		if run.Converged {
			g.Converged++
			convAts[k] = append(convAts[k], run.ConvergedAtS)
		}
		gaps[k] = append(gaps[k], run.Gap)
		totals[k] = append(totals[k], run.TotalMbps)
		allGaps = append(allGaps, run.Gap)
	}
	for _, k := range orderKeys {
		g := &r.Groups[groups[k]]
		g.Gap = stats.Aggregate(gaps[k])
		g.TotalMbps = stats.Aggregate(totals[k])
		g.ConvergedAtS = stats.Aggregate(convAts[k])
	}
	r.Gap = stats.Aggregate(allGaps)
}

// Errs counts failed runs.
func (r *SweepResult) Errs() int {
	n := 0
	for _, run := range r.Runs {
		if run.Err != "" {
			n++
		}
	}
	return n
}
