package mptcpsim

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mptcpsim/internal/cc"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/telemetry"
)

// Grid describes a parameter sweep: the cross product of scenarios,
// perturbations, congestion-control algorithms, schedulers, subflow
// orderings and seeds, each combination executed as one independent
// experiment. A Grid is JSON-serialisable so cmd/sweep can read grid specs
// from disk (see LoadGrid); empty axes default to a single sensible value.
//
// Expansion order is deterministic and documented: scenarios vary slowest,
// then perturbations, event sets, CC algorithms, schedulers, orderings,
// and seeds fastest. Run indices in the resulting SweepResult follow that
// order regardless of how many workers execute the sweep.
type Grid struct {
	// Scenarios lists the topologies to sweep over. Empty means the paper
	// network (Fig. 1a).
	Scenarios []GridScenario `json:"scenarios,omitempty"`
	// CCs lists congestion-control algorithms ("cubic", "reno", "lia",
	// "olia", "balia", "wvegas"). Empty means {"cubic"}.
	CCs []string `json:"ccs,omitempty"`
	// Schedulers lists MPTCP schedulers ("minrtt", "roundrobin",
	// "redundant"). Empty means {"minrtt"}.
	Schedulers []string `json:"schedulers,omitempty"`
	// Orders lists subflow orderings (1-based path numbers, first =
	// default path). Empty means one run in path-definition order.
	Orders [][]int `json:"orders,omitempty"`
	// Perturbations lists topology modifications applied on top of each
	// scenario. Empty means a single unperturbed pass.
	Perturbations []Perturbation `json:"perturbations,omitempty"`
	// Events lists dynamic-event timelines applied on top of each
	// (scenario, perturbation) combination — the axis that asks how each
	// algorithm copes with a failure, handover or renegotiation. Empty
	// means a single static pass. Event times and targets are validated at
	// expansion time, before any run starts.
	Events []EventSet `json:"events,omitempty"`
	// Seeds lists the random seeds. Empty means {1}.
	Seeds []int64 `json:"seeds,omitempty"`
	// DurationMs overrides the traffic duration (milliseconds); 0 keeps
	// the 4 s default.
	DurationMs float64 `json:"duration_ms,omitempty"`
	// SampleMs overrides the capture bin width (milliseconds); 0 keeps the
	// 100 ms default.
	SampleMs float64 `json:"sample_ms,omitempty"`

	// Base supplies any further per-run options programmatically (SACK,
	// timestamps, transfer size, convergence band...). CC, Scheduler,
	// SubflowPaths and Seed are overwritten by the grid axes;
	// Base.QueueScale multiplies with each perturbation's QueueScale.
	Base Options `json:"-"`
}

// GridScenario selects one topology of a sweep, either the built-in paper
// network or an inline ScenarioFile. cmd/sweep additionally accepts a
// "file" reference, which it resolves to an inline scenario before
// expansion.
type GridScenario struct {
	// Name labels the scenario in results; defaulted when empty.
	Name string `json:"name,omitempty"`
	// Paper selects the built-in Fig. 1a network.
	Paper bool `json:"paper,omitempty"`
	// File is a path to a scenario JSON file. The library does not touch
	// the filesystem: callers (cmd/sweep) must resolve File into Scenario
	// before Expand.
	File string `json:"file,omitempty"`
	// Scenario is an inline topology description.
	Scenario *ScenarioFile `json:"scenario,omitempty"`
}

// Perturbation modifies a scenario's links before a run — the ablation
// axis of a sweep (how robust is the optimality result to latency noise,
// random loss, or shallow buffers?). Global fields apply to every link;
// Links entries override individual ones afterwards.
type Perturbation struct {
	// Name labels the perturbation in results; defaulted when empty.
	Name string `json:"name,omitempty"`
	// Scenarios restricts the perturbation to the named scenarios; empty
	// applies it to all. Link-targeted perturbations usually need this in
	// multi-scenario grids (targeting a link absent from an applicable
	// scenario is an error).
	Scenarios []string `json:"scenarios,omitempty"`
	// DelayScale multiplies every link's propagation delay (0 = keep).
	DelayScale float64 `json:"delay_scale,omitempty"`
	// Loss adds an independent drop probability in (0, 1] to every link;
	// the per-link sum is capped at 1.
	Loss float64 `json:"loss,omitempty"`
	// QueueScale multiplies every link's buffer for the run (forwarded to
	// Options.QueueScale; 0 = keep).
	QueueScale float64 `json:"queue_scale,omitempty"`
	// Links lists targeted single-link overrides applied after the global
	// fields.
	Links []LinkPerturbation `json:"links,omitempty"`
}

// EventSet is one value of a sweep's events axis: a named timeline of
// dynamic events appended to the scenario's own events (if any). The
// empty timeline is the static pass and is usually listed first under the
// name "static" so every dynamic cell has its control.
type EventSet struct {
	// Name labels the set in results; defaulted when empty ("static" for
	// an empty timeline).
	Name string `json:"name,omitempty"`
	// Scenarios restricts the set to the named scenarios; empty applies it
	// to all. Link-targeted events usually need this in multi-scenario
	// grids (targeting a link absent from an applicable scenario is an
	// error).
	Scenarios []string `json:"scenarios,omitempty"`
	// Events is the timeline, in scenario-file form.
	Events []ScenarioEvent `json:"events,omitempty"`
}

// appliesTo reports whether the event set covers the named scenario.
func (es EventSet) appliesTo(scenario string) bool {
	if len(es.Scenarios) == 0 {
		return true
	}
	for _, s := range es.Scenarios {
		if s == scenario {
			return true
		}
	}
	return false
}

// apply returns a deep copy of sf with the set's events appended.
func (es EventSet) apply(sf *ScenarioFile) *ScenarioFile {
	out := sf.clone()
	out.Events = append(out.Events, es.Events...)
	return out
}

// LinkPerturbation overrides the parameters of one named link (matched in
// either direction). Zero-valued fields keep the link's current value.
type LinkPerturbation struct {
	A string `json:"a"`
	B string `json:"b"`
	// Mbps replaces the link capacity.
	Mbps float64 `json:"mbps,omitempty"`
	// DelayMs replaces the one-way propagation delay.
	DelayMs float64 `json:"delay_ms,omitempty"`
	// QueueBytes replaces the buffer size.
	QueueBytes int `json:"queue_bytes,omitempty"`
	// Loss replaces the drop probability.
	Loss float64 `json:"loss,omitempty"`
}

// canonicalSchedName maps a scheduler spelling (case variants, aliases
// like "rr" or "default", the empty default) to the scheduler's own
// canonical name, so axis dedup and result labels agree across spellings.
func canonicalSchedName(name string) string {
	s, err := mptcp.NewScheduler(name)
	if err != nil {
		return schedName(name)
	}
	return s.Name()
}

// rejectDuplicateAxis errors when an axis lists the same value twice
// (after normalization): duplicates would execute identical runs and
// double-count them in group statistics.
func rejectDuplicateAxis(axis string, vals []string, norm func(string) string) error {
	seen := make(map[string]bool, len(vals))
	for _, v := range vals {
		if norm != nil {
			v = norm(v)
		}
		if seen[v] {
			return fmt.Errorf("mptcpsim: duplicate %s %q in grid", axis, v)
		}
		seen[v] = true
	}
	return nil
}

// appliesTo reports whether the perturbation covers the named scenario.
func (p Perturbation) appliesTo(scenario string) bool {
	if len(p.Scenarios) == 0 {
		return true
	}
	for _, s := range p.Scenarios {
		if s == scenario {
			return true
		}
	}
	return false
}

// apply returns a deep copy of sf with the perturbation applied.
func (p Perturbation) apply(sf *ScenarioFile) (*ScenarioFile, error) {
	// Zero means "keep"; a negative scale or probability is a sign typo
	// that would otherwise run as an unperturbed cell under this name.
	if p.DelayScale < 0 || p.QueueScale < 0 || p.Loss < 0 {
		return nil, fmt.Errorf("mptcpsim: perturbation %q has a negative field", p.Name)
	}
	// Like the per-link override: loss > 1 is a typo'd percentage, not a
	// probability, and would drop every packet.
	if p.Loss > 1 {
		return nil, fmt.Errorf("mptcpsim: perturbation %q sets loss %v (want 0..1)", p.Name, p.Loss)
	}
	out := sf.clone()
	for i := range out.Links {
		if p.DelayScale > 0 {
			out.Links[i].DelayMs *= p.DelayScale
		}
		if p.Loss > 0 {
			out.Links[i].Loss += p.Loss
			if out.Links[i].Loss > 1 {
				out.Links[i].Loss = 1
			}
		}
	}
	for _, ov := range p.Links {
		if ov.Loss < 0 || ov.Loss > 1 {
			return nil, fmt.Errorf("mptcpsim: perturbation %q sets loss %v on %s-%s (want 0..1)",
				p.Name, ov.Loss, ov.A, ov.B)
		}
		// Zero means "keep"; negatives are typos, not overrides.
		if ov.Mbps < 0 || ov.DelayMs < 0 || ov.QueueBytes < 0 {
			return nil, fmt.Errorf("mptcpsim: perturbation %q sets a negative value on %s-%s",
				p.Name, ov.A, ov.B)
		}
		// An override with nothing to override is a forgotten field, and
		// would silently run an unperturbed cell under this name.
		if ov.Mbps == 0 && ov.DelayMs == 0 && ov.QueueBytes == 0 && ov.Loss == 0 {
			return nil, fmt.Errorf("mptcpsim: perturbation %q overrides %s-%s without setting any field",
				p.Name, ov.A, ov.B)
		}
		found := false
		for i := range out.Links {
			l := &out.Links[i]
			if (l.A == ov.A && l.B == ov.B) || (l.A == ov.B && l.B == ov.A) {
				found = true
				if ov.Mbps > 0 {
					l.Mbps = ov.Mbps
				}
				if ov.DelayMs > 0 {
					l.DelayMs = ov.DelayMs
				}
				if ov.QueueBytes > 0 {
					l.QueueBytes = ov.QueueBytes
				}
				if ov.Loss > 0 {
					l.Loss = ov.Loss
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("mptcpsim: perturbation %q targets unknown link %s-%s", p.Name, ov.A, ov.B)
		}
	}
	return out, nil
}

// LoadGrid parses a JSON grid spec (see Grid for the schema).
func LoadGrid(r io.Reader) (*Grid, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("mptcpsim: grid: %w", err)
	}
	return &g, nil
}

// RunSpec is one fully resolved point of an expanded grid.
type RunSpec struct {
	// Index is the position in deterministic expansion order.
	Index int
	// Scenario and Perturbation name the topology variant; Events names
	// the dynamic-event set in force ("static" when the axis is unused).
	Scenario, Perturbation, Events string
	// Options holds the complete per-run options (CC, scheduler, ordering,
	// seed and queue scale filled from the grid axes).
	Options Options

	scenario *ScenarioFile
}

// Expand resolves defaults and produces the deterministic run list: the
// full cross product with scenarios varying slowest, then perturbations,
// event sets, CC algorithms, schedulers, orderings, and seeds fastest.
func (g *Grid) Expand() ([]RunSpec, error) {
	scenarios := g.Scenarios
	if len(scenarios) == 0 {
		scenarios = []GridScenario{{Name: "paper", Paper: true}}
	}
	type namedScenario struct {
		name string
		file *ScenarioFile
	}
	resolved := make([]namedScenario, len(scenarios))
	for i, s := range scenarios {
		ns := namedScenario{name: s.Name}
		// Exactly one selector: with several set, the library and the CLI
		// (which resolves File into Scenario first) would silently pick
		// different topologies for the same spec.
		selectors := 0
		for _, set := range []bool{s.Paper, s.File != "", s.Scenario != nil} {
			if set {
				selectors++
			}
		}
		if selectors > 1 {
			return nil, fmt.Errorf("mptcpsim: scenario %d sets more than one of paper/file/scenario", i)
		}
		switch {
		case s.Scenario != nil:
			ns.file = s.Scenario
		case s.Paper:
			ns.file = PaperScenario()
			if ns.name == "" {
				ns.name = "paper"
			}
		case s.File != "":
			return nil, fmt.Errorf("mptcpsim: scenario %d references file %q; resolve it into an inline scenario before Expand", i, s.File)
		default:
			return nil, fmt.Errorf("mptcpsim: scenario %d is empty (set paper, file or scenario)", i)
		}
		if ns.name == "" {
			ns.name = fmt.Sprintf("s%d", i+1)
		}
		resolved[i] = ns
	}
	// Group aggregation keys on the name; duplicates would silently pool
	// unrelated topologies into one cell.
	scNames := make([]string, len(resolved))
	for i, sc := range resolved {
		scNames[i] = sc.name
	}
	if err := rejectDuplicateAxis("scenario name", scNames, nil); err != nil {
		return nil, err
	}

	perts := g.Perturbations
	if len(perts) == 0 {
		perts = []Perturbation{{Name: "base"}}
	}
	// Like scenarios, perturbation names key aggregation groups.
	pnames := make([]string, len(perts))
	for i, pert := range perts {
		pnames[i] = pert.Name
		if pnames[i] == "" {
			pnames[i] = fmt.Sprintf("p%d", i+1)
		}
	}
	if err := rejectDuplicateAxis("perturbation name", pnames, nil); err != nil {
		return nil, err
	}
	// A typo'd scenario filter would otherwise silently drop runs.
	for _, pert := range perts {
		for _, want := range pert.Scenarios {
			known := false
			for _, sc := range resolved {
				if sc.name == want {
					known = true
					break
				}
			}
			if !known {
				return nil, fmt.Errorf("mptcpsim: perturbation %q targets unknown scenario %q", pert.Name, want)
			}
		}
	}

	// The events axis: like perturbations, sets are named, deduplicated,
	// and may be scoped to scenarios; an empty axis is one static pass.
	events := g.Events
	if len(events) == 0 {
		events = []EventSet{{Name: "static"}}
	}
	enames := make([]string, len(events))
	for i, es := range events {
		enames[i] = es.Name
		if enames[i] == "" {
			if len(es.Events) == 0 {
				enames[i] = "static"
			} else {
				enames[i] = fmt.Sprintf("e%d", i+1)
			}
		}
	}
	if err := rejectDuplicateAxis("event set name", enames, nil); err != nil {
		return nil, err
	}
	for _, es := range events {
		for _, want := range es.Scenarios {
			known := false
			for _, sc := range resolved {
				if sc.name == want {
					known = true
					break
				}
			}
			if !known {
				return nil, fmt.Errorf("mptcpsim: event set %q targets unknown scenario %q", es.Name, want)
			}
		}
	}
	// Axis values are validated up front, consistent with the topology
	// pre-build below: a typo'd name is a structural error, not N
	// identical per-run failures.
	ccs := g.CCs
	if len(ccs) == 0 {
		ccs = []string{"cubic"}
	}
	for _, name := range ccs {
		if _, err := cc.New(name); err != nil {
			return nil, fmt.Errorf("mptcpsim: %w", err)
		}
	}
	if err := rejectDuplicateAxis("cc", ccs, strings.ToLower); err != nil {
		return nil, err
	}
	scheds := g.Schedulers
	if len(scheds) == 0 {
		scheds = []string{"minrtt"}
	}
	for _, name := range scheds {
		if _, err := mptcp.NewScheduler(name); err != nil {
			return nil, fmt.Errorf("mptcpsim: %w", err)
		}
	}
	if err := rejectDuplicateAxis("scheduler", scheds, canonicalSchedName); err != nil {
		return nil, err
	}
	orders := g.Orders
	if len(orders) == 0 {
		orders = [][]int{nil}
	}
	// Duplicate orders are checked per scenario so that the empty order
	// (path-definition order) collides with an explicitly spelled-out
	// identity permutation instead of double-counting those runs.
	for _, sc := range resolved {
		n := len(sc.file.Paths)
		orderNames := make([]string, len(orders))
		for i, o := range orders {
			if len(o) == 0 {
				ident := make([]int, n)
				for j := range ident {
					ident[j] = j + 1
				}
				o = ident
			}
			orderNames[i] = orderString(o)
		}
		if err := rejectDuplicateAxis("order", orderNames, nil); err != nil {
			return nil, err
		}
	}
	// A repeated path in one ordering would open two subflows with the
	// same tag and corrupt the greedy baseline.
	for _, o := range orders {
		in := make(map[int]bool, len(o))
		for _, p := range o {
			if in[p] {
				return nil, fmt.Errorf("mptcpsim: order %s lists path %d twice", orderString(o), p)
			}
			in[p] = true
		}
	}
	// Orders apply to every scenario, so each must stay within every
	// scenario's path count — caught here, not as N per-run failures.
	for _, sc := range resolved {
		n := len(sc.file.Paths)
		for _, o := range orders {
			for _, p := range o {
				if p < 1 || p > n {
					return nil, fmt.Errorf("mptcpsim: order %s references path %d of %d in scenario %q",
						orderString(o), p, n, sc.name)
				}
			}
		}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	seedNames := make([]string, len(seeds))
	for i, s := range seeds {
		if s == 0 {
			s = 1 // withDefaults maps seed 0 to 1, so 0 and 1 collide
		}
		seedNames[i] = strconv.FormatInt(s, 10)
	}
	if err := rejectDuplicateAxis("seed", seedNames, nil); err != nil {
		return nil, err
	}

	base := g.Base
	if g.DurationMs > 0 {
		base.Duration = time.Duration(g.DurationMs * float64(time.Millisecond))
	}
	if g.SampleMs > 0 {
		base.SampleInterval = time.Duration(g.SampleMs * float64(time.Millisecond))
	}
	baseQueueScale := base.QueueScale
	if baseQueueScale <= 0 {
		baseQueueScale = 1
	}

	var specs []RunSpec
	for _, sc := range resolved {
		covered := false
		for _, pert := range perts {
			if pert.appliesTo(sc.name) {
				covered = true
				break
			}
		}
		// A scenario every perturbation filters out would contribute zero
		// runs with no diagnostic — remove it from the grid instead.
		if !covered {
			return nil, fmt.Errorf("mptcpsim: scenario %q is excluded by every perturbation's scenario filter", sc.name)
		}
		covered = false
		for _, es := range events {
			if es.appliesTo(sc.name) {
				covered = true
				break
			}
		}
		if !covered {
			return nil, fmt.Errorf("mptcpsim: scenario %q is excluded by every event set's scenario filter", sc.name)
		}
		for pi, pert := range perts {
			if !pert.appliesTo(sc.name) {
				continue
			}
			pname := pnames[pi]
			perturbed, err := pert.apply(sc.file)
			if err != nil {
				return nil, err
			}
			qs := baseQueueScale
			if pert.QueueScale > 0 {
				qs *= pert.QueueScale
			}
			for ei, es := range events {
				if !es.appliesTo(sc.name) {
					continue
				}
				ename := enames[ei]
				withEvents := es.apply(perturbed)
				// Catch broken topologies and timelines now rather than
				// burning the whole sweep on runs that all fail at build
				// time: Build validates every event (times, targets,
				// parameters, down/up pairing) against the final perturbed
				// links.
				if _, err := withEvents.Build(); err != nil {
					return nil, fmt.Errorf("mptcpsim: scenario %q / perturbation %q / events %q: %w",
						sc.name, pname, ename, err)
				}
				for _, ccName := range ccs {
					for _, sched := range scheds {
						for _, order := range orders {
							for _, seed := range seeds {
								opts := base
								opts.CC = ccName
								opts.Scheduler = sched
								opts.SubflowPaths = order
								opts.Seed = seed
								opts.QueueScale = qs
								specs = append(specs, RunSpec{
									Index:        len(specs),
									Scenario:     sc.name,
									Perturbation: pname,
									Events:       ename,
									Options:      opts,
									scenario:     withEvents,
								})
							}
						}
					}
				}
			}
		}
	}
	return specs, nil
}

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
	// run's counter snapshot (and a failed run's flight-recorder tail) in
	// the full Result; Run folds the snapshots into SweepResult.Telemetry.
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
// whose run-logs (LogSink) or online aggregates (AggSink) replace the
// in-memory SweepResult. The sweep-level ValidateInvariants flag folds into
// the digest identity (see Describe), so logs only merge across matching
// run settings. Stream closes the sink exactly once, after the last
// delivery; per-run failures land in their RunSummary.Err as always, and
// the returned error reports structural problems or the first sink failure.
func (s *Sweep) Stream(g *Grid, spec StreamSpec, sink RunSink) error {
	shard := spec.Shard
	if shard.N == 0 {
		shard = Shard{K: 0, N: 1}
	}
	if err := shard.Validate(); err != nil {
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
	execErr := s.execute(mine, sink)
	if cerr := sink.Close(); execErr == nil {
		execErr = cerr
	}
	return execErr
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
// Completions are delivered under one lock: Accept calls never overlap,
// done is monotone, and each run is delivered exactly once. The first sink
// error stops further deliveries (remaining runs still execute; their
// results are void) and is returned.
func (s *Sweep) execute(specs []RunSpec, sink RunSink) error {
	workers := s.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}

	var (
		mu      sync.Mutex
		done    int
		sinkErr error
		wg      sync.WaitGroup
	)
	jobs := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				spec := specs[i]
				if s.Telemetry {
					spec.Options.Telemetry = true
				}
				summary, full := runSpec(spec)
				mu.Lock()
				done++
				if sinkErr == nil {
					if err := sink.Accept(done, len(specs), summary, full); err != nil {
						sinkErr = err
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i := range specs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return sinkErr
}

// runSpec executes one grid point on a freshly built network (Run mutates
// link state in place, so concurrent runs must not share a Network).
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
	nw, err := spec.scenario.Build()
	if err != nil {
		summary.Err = err.Error()
		return summary, nil
	}
	r, err := Run(nw, spec.Options)
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

// WriteCSV emits one row per run, in grid order.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"index", "scenario", "perturbation",
		"events", "cc", "scheduler", "order", "seed", "optimum_mbps",
		"target_mbps", "greedy_mbps", "total_mbps", "gap_pct", "converged",
		"conv_time_s", "post_cov", "err"}); err != nil {
		return err
	}
	for _, run := range r.Runs {
		// Blank, not 0.00, where there is no data: a failed run must not
		// read as a perfect gap, nor a non-converged one as instant
		// convergence.
		metrics := []string{"", "", "", "", "", "", "", ""}
		if run.Err == "" {
			metrics[5] = strconv.FormatBool(run.Converged)
			metrics[0] = fmt.Sprintf("%.2f", run.OptimumMbps)
			metrics[1] = fmt.Sprintf("%.2f", run.TargetMbps)
			metrics[2] = fmt.Sprintf("%.2f", run.GreedyMbps)
			metrics[3] = fmt.Sprintf("%.2f", run.TotalMbps)
			metrics[4] = fmt.Sprintf("%.2f", run.Gap*100)
			if run.Converged {
				metrics[6] = fmt.Sprintf("%.2f", run.ConvergedAtS)
			}
			metrics[7] = fmt.Sprintf("%.4f", run.PostCoV)
		}
		rec := append([]string{
			strconv.Itoa(run.Index), run.Scenario, run.Perturbation,
			run.Events, run.CC, run.Scheduler, run.OrderString(),
			strconv.FormatInt(run.Seed, 10),
		}, metrics...)
		if err := cw.Write(append(rec, run.Err)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteGroupsCSV emits one row per aggregated (scenario, perturbation, CC,
// scheduler) cell.
func (r *SweepResult) WriteGroupsCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"scenario", "perturbation", "events", "cc",
		"scheduler", "runs", "errors", "converged", "mean_gap_pct",
		"min_gap_pct", "max_gap_pct", "mean_total_mbps",
		"mean_conv_time_s"}); err != nil {
		return err
	}
	for _, g := range r.Groups {
		// Empty cells, not 0.00, where there is no data: a dead group
		// must not read as a perfect gap, nor an unconverged one as
		// instant convergence.
		cells := []string{"", "", "", "", ""}
		if g.Runs > 0 {
			cells[0] = fmt.Sprintf("%.2f", g.Gap.Mean*100)
			cells[1] = fmt.Sprintf("%.2f", g.Gap.Min*100)
			cells[2] = fmt.Sprintf("%.2f", g.Gap.Max*100)
			cells[3] = fmt.Sprintf("%.2f", g.TotalMbps.Mean)
		}
		if g.Converged > 0 {
			cells[4] = fmt.Sprintf("%.2f", g.ConvergedAtS.Mean)
		}
		rec := append([]string{g.Scenario, g.Perturbation, g.Events, g.CC,
			g.Scheduler, strconv.Itoa(g.Runs), strconv.Itoa(g.Errors),
			strconv.Itoa(g.Converged)}, cells...)
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON emits the whole result (runs, groups, overall gap) as indented
// JSON.
func (r *SweepResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Report renders a human-readable aggregate table, groups sorted as
// encountered with the best mean gap flagged.
func (r *SweepResult) Report(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sweep: %d runs", len(r.Runs))
	if n := r.Errs(); n > 0 {
		fmt.Fprintf(&sb, " (%d failed)", n)
	}
	if r.Gap.N > 0 {
		fmt.Fprintf(&sb, ", gap mean %.1f%% median %.1f%% min %.1f%% max %.1f%%",
			r.Gap.Mean*100, r.Gap.Median*100, r.Gap.Min*100, r.Gap.Max*100)
	}
	sb.WriteString("\n\n")
	best := -1.0
	for _, g := range r.Groups {
		if g.Runs > 0 && (best < 0 || g.Gap.Mean < best) {
			best = g.Gap.Mean
		}
	}
	fmt.Fprintf(&sb, "%-10s %-8s %-8s %-8s %-10s %5s %5s  %-22s %s\n",
		"scenario", "pert", "events", "cc", "scheduler", "runs", "conv", "gap mean±std [min,max]", "")
	for _, g := range r.Groups {
		events := g.Events
		if events == "" {
			events = "static"
		}
		if g.Runs == 0 {
			fmt.Fprintf(&sb, "%-10s %-8s %-8s %-8s %-10s %5d %5d  (no completed runs, %d errors)\n",
				g.Scenario, g.Perturbation, events, g.CC, g.Scheduler, g.Runs, g.Converged, g.Errors)
			continue
		}
		mark := ""
		if g.Gap.Mean == best {
			mark = "  <- best"
		}
		fmt.Fprintf(&sb, "%-10s %-8s %-8s %-8s %-10s %5d %5d  %5.1f%% ±%4.1f [%5.1f,%5.1f]%s\n",
			g.Scenario, g.Perturbation, events, g.CC, g.Scheduler, g.Runs, g.Converged,
			g.Gap.Mean*100, g.Gap.Std*100, g.Gap.Min*100, g.Gap.Max*100, mark)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// SortRunsByGap returns run indices ordered by ascending gap (completed
// runs only) — the sweep's leaderboard.
func (r *SweepResult) SortRunsByGap() []int {
	var idx []int
	for i, run := range r.Runs {
		if run.Err == "" {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return r.Runs[idx[a]].Gap < r.Runs[idx[b]].Gap
	})
	return idx
}
