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
// the LP baseline, the convergence/optimality metrics and the Derived
// record, the same on every route (in memory, streamed, merged). It holds
// no wall-clock data, so serialised sweep output is bit-identical across
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
	// Derived holds the measures that explain a gap. MemorySink and LogSink
	// fill it from the full Result, so every route carries it.
	Derived Derived `json:"derived"`
	// Err records a per-run failure; the rest of the sweep continues.
	Err string `json:"err,omitempty"`
}

// Derived is a run's record of the measures derive computes from its full
// Result. A failed run's record is zero, as is one read from a run-log
// older than the record. Result.Hash never reads it.
type Derived struct {
	GoodputMbps float64 `json:"goodput_mbps"` // in-order delivery to the application, over the run
	DupFrac     float64 `json:"dup_frac"`     // duplicate share of the data reaching the receiver
	RTOs        uint64  `json:"rtos"`         // retransmission timeouts, over every subflow
}

// derive returns s with its Derived record filled from full, the run's
// complete Result. A failed run keeps a zero record, and without a full
// Result s keeps the record it carries.
func derive(s RunSummary, full *Result) RunSummary {
	if full == nil || s.Err != "" {
		return s
	}
	d := Derived{GoodputMbps: float64(full.DeliveredBytes) * 8 / full.Options.Duration.Seconds() / 1e6}
	if data := full.DeliveredBytes + full.DuplicateBytes; data > 0 {
		d.DupFrac = float64(full.DuplicateBytes) / float64(data)
	}
	for _, sf := range full.Subflows {
		d.RTOs += sf.RTOs
	}
	s.Derived = d
	return s
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
// events, CC, scheduler) cell over orderings and seeds, or, after
// SweepResult.SplitOrders, one ordering of the cell over seeds.
type GroupStats struct {
	Scenario     string `json:"scenario"`
	Perturbation string `json:"perturbation"`
	Events       string `json:"events,omitempty"`
	CC           string `json:"cc"`
	Scheduler    string `json:"scheduler"`
	// Order is the ordering of a group SplitOrders made; empty otherwise
	// and for runs in path-definition order.
	Order []int `json:"order,omitempty"`
	// Runs counts completed runs in the cell, Errors failed ones.
	Runs   int `json:"runs"`
	Errors int `json:"errors,omitempty"`
	// Converged counts runs that reached the optimum band.
	Converged int `json:"converged"`
	// Gap, TotalMbps, ConvergedAtS and PostCoV summarise the per-run
	// metrics (ConvergedAtS over converged runs only).
	Gap          stats.Agg `json:"gap"`
	TotalMbps    stats.Agg `json:"total_mbps"`
	ConvergedAtS stats.Agg `json:"converged_at_s"`
	PostCoV      stats.Agg `json:"post_cov"`
	// GoodputMbps, DupFrac and RTOs summarise the runs' Derived records.
	// JSON carries them; the CSVs and the report do not.
	GoodputMbps stats.Agg `json:"goodput_mbps"`
	DupFrac     stats.Agg `json:"dup_frac"`
	RTOs        stats.Agg `json:"rtos"`
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
// Execute is the one execution path: it feeds every completed run to a
// RunSink chain and retains nothing. Stream is Execute over an expanded
// grid, Run is Stream into a MemorySink.
type Sweep struct {
	// Workers is the goroutine pool size; 0 means GOMAXPROCS.
	Workers int
	// ValidateInvariants, EventLimit and Telemetry set the Options field of
	// their name on every run Stream expands. An invariant violation or an
	// event-limit abort (0 = no limit) becomes the run's Err, failing the
	// cell without aborting the sweep. Telemetry gives the sinks each run's
	// counter rollup (and a failed run's flight-recorder tail), which Run
	// merges into SweepResult.Telemetry.
	ValidateInvariants bool
	EventLimit         uint64
	Telemetry          bool
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
// sweep's ValidateInvariants and EventLimit fold into the digest identity
// (see Describe), so logs only merge across matching run settings. Stream
// is expansion, the shard and skip filter, then Execute; it closes the sink
// exactly once, also on a structural error before the first run, which it
// returns. Per-run failures land in their RunSummary.Err as always.
func (s *Sweep) Stream(g *Grid, spec StreamSpec, sink RunSink) error {
	shard := spec.Shard
	if shard.N == 0 {
		shard = Shard{K: 0, N: 1}
	}
	err := shard.Validate()
	var specs []RunSpec
	if err == nil {
		specs, err = s.expandFolded(g)
	}
	if err != nil {
		sink.Close()
		return err
	}
	mine := specs[:0]
	for _, sp := range specs {
		if sp.Index%shard.N == shard.K && (spec.Skip == nil || !spec.Skip(sp.Index)) {
			mine = append(mine, sp)
		}
	}
	return s.Execute(mine, sink)
}

// Describe expands the grid and returns its canonical digest and total
// run count under this sweep's settings — the header values a run-log
// needs before the first run completes. The digest covers the options
// every run executes, so grids that spell the same runs alike share it,
// and run-logs only merge across matching run settings.
func (s *Sweep) Describe(g *Grid) (digest string, total int, err error) {
	specs, err := s.expandFolded(g)
	if err != nil {
		return "", 0, err
	}
	return specsDigest(specs), len(specs), nil
}

// Execute runs the specs across the worker pool, feeding every completion
// to the sink — the single dispatch point every results surface hangs off —
// and then closes the sink. Each spec runs with its Options as given, so
// specs from several expansions, renumbered to distinct indices, can share
// one pool; the sweep's own settings apply through expansion (Stream), not
// here. Workers take specs in order and deliver completions under one lock:
// Accept calls never overlap, done is monotone, and each run is delivered
// exactly once. The first sink error ends the sweep: no further spec is
// dispatched, the runs already in flight finish undelivered, and that error
// is returned. A Close error is returned only when nothing failed before it.
func (s *Sweep) Execute(specs []RunSpec, sink RunSink) error {
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
	if cerr := sink.Close(); sinkErr == nil {
		sinkErr = cerr
	}
	return sinkErr
}

// runSpec executes one grid point: the cell's one preparation, shared with
// the cell's other runs wherever they execute, then this run's simulation.
func runSpec(spec RunSpec) (RunSummary, *Result) {
	summary := RunSummary{
		Index:        spec.Index,
		Scenario:     spec.Scenario,
		Perturbation: spec.Perturbation,
		Events:       spec.Events,
		CC:           spec.Options.CC,
		Scheduler:    spec.Options.Scheduler,
		Order:        spec.Options.SubflowPaths,
		Seed:         spec.Options.Seed,
	}
	var r *Result
	pre, err := spec.cell.prepared()
	if err == nil {
		r, err = pre.simulate(spec.Options)
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

// aggregate fills Groups and the overall Gap from Runs: a group per
// (scenario, perturbation, events, CC, scheduler) cell and, with split, per
// ordering of it.
func (r *SweepResult) aggregate(split bool) {
	type key struct{ scenario, pert, events, cc, sched, order string }
	type sample struct{ gap, total, convAt, postCoV, goodput, dupFrac, rtos []float64 }
	index := make(map[key]int)
	var (
		samples []sample
		allGaps []float64
	)
	r.Groups = nil
	for _, run := range r.Runs {
		k := key{run.Scenario, run.Perturbation, run.Events, run.CC, run.Scheduler, ""}
		var order []int
		if split {
			k.order, order = run.OrderString(), run.Order
		}
		gi, ok := index[k]
		if !ok {
			gi = len(r.Groups)
			index[k] = gi
			r.Groups = append(r.Groups, GroupStats{
				Scenario:     run.Scenario,
				Perturbation: run.Perturbation,
				Events:       run.Events,
				CC:           run.CC,
				Scheduler:    run.Scheduler,
				Order:        order,
			})
			samples = append(samples, sample{})
		}
		g, s := &r.Groups[gi], &samples[gi]
		if run.Err != "" {
			g.Errors++
			continue
		}
		g.Runs++
		if run.Converged {
			g.Converged++
			s.convAt = append(s.convAt, run.ConvergedAtS)
		}
		s.gap = append(s.gap, run.Gap)
		s.total = append(s.total, run.TotalMbps)
		allGaps = append(allGaps, run.Gap)
		s.postCoV = append(s.postCoV, run.PostCoV)
		s.goodput = append(s.goodput, run.Derived.GoodputMbps)
		s.dupFrac = append(s.dupFrac, run.Derived.DupFrac)
		s.rtos = append(s.rtos, float64(run.Derived.RTOs))
	}
	for i, s := range samples {
		g := &r.Groups[i]
		g.Gap = stats.Aggregate(s.gap)
		g.TotalMbps = stats.Aggregate(s.total)
		g.ConvergedAtS = stats.Aggregate(s.convAt)
		g.PostCoV = stats.Aggregate(s.postCoV)
		g.GoodputMbps = stats.Aggregate(s.goodput)
		g.DupFrac = stats.Aggregate(s.dupFrac)
		g.RTOs = stats.Aggregate(s.rtos)
	}
	r.Gap = stats.Aggregate(allGaps)
}

// SplitOrders regroups the runs with subflow orderings kept apart, a group
// then being one ordering of a cell over seeds (GroupStats.Order). It
// changes only the grouping: the groups of a sweep and of a merge fold over
// orderings, and no sweep format prints an ordering.
func (r *SweepResult) SplitOrders() { r.aggregate(true) }

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
