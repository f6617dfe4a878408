package mptcpsim

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"mptcpsim/internal/cc"
	"mptcpsim/internal/mptcp"
)

// Grid describes a parameter sweep: the cross product of scenarios,
// perturbations, congestion-control algorithms, schedulers, subflow
// orderings and seeds, each combination executed as one independent
// experiment. A Grid is exactly its JSON (see LoadGrid); empty axes default
// to a single sensible value, and what a sweep adds to every run is a
// Sweep setting.
//
// Expansion order is deterministic and documented: scenarios vary slowest,
// then perturbations, event sets, CC algorithms, schedulers, orderings,
// and seeds fastest. Run indices in the resulting SweepResult follow that
// order regardless of how many workers execute the sweep.
type Grid struct {
	// Scenarios lists the topologies to sweep over. Empty means the paper
	// network (Fig. 1a).
	Scenarios []GridScenario `json:"scenarios,omitempty"`
	// CCs lists congestion-control algorithms by exact name ("cubic",
	// "reno", "lia", "olia", "balia", "wvegas"). Empty means {"cubic"}.
	CCs []string `json:"ccs,omitempty"`
	// Schedulers lists MPTCP schedulers by exact name ("minrtt",
	// "redundant"). Empty means {"minrtt"}. "roundrobin" is an accepted
	// alias of "minrtt" that nothing shipped draws (see Options.Scheduler):
	// listing both doubles the runs without adding a cell.
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
	// DisableSACK runs the cell with NewReno-only loss recovery (forwarded
	// to Options.DisableSACK).
	DisableSACK bool `json:"disable_sack,omitempty"`
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

// rejectDuplicateAxis errors when an axis lists the same value twice:
// duplicates would execute identical runs and double-count them in group
// statistics. Run options are compared as Run resolves them.
func rejectDuplicateAxis(axis string, vals []string) error {
	seen := make(map[string]bool, len(vals))
	for _, v := range vals {
		if seen[v] {
			return fmt.Errorf("mptcpsim: duplicate %s %q in grid", axis, v)
		}
		seen[v] = true
	}
	return nil
}

// scenarioFilter is the Scenarios list of a perturbation or an event set:
// the scenarios the axis value applies to, all of them when empty.
type scenarioFilter []string

// matches reports whether the filter covers the named scenario.
func (f scenarioFilter) matches(scenario string) bool {
	return len(f) == 0 || slices.Contains(f, scenario)
}

// label is the perturbation's name in results, "p<i+1>" for the i-th when
// unnamed, and its scenario filter.
func (p Perturbation) label(i int) (string, scenarioFilter) {
	return cmp.Or(p.Name, fmt.Sprintf("p%d", i+1)), p.Scenarios
}

// label is the event set's name in results, when unnamed "static" for an
// empty timeline and "e<i+1>" for the i-th other one, and its scenario
// filter.
func (es EventSet) label(i int) (string, scenarioFilter) {
	if len(es.Events) == 0 {
		return cmp.Or(es.Name, "static"), es.Scenarios
	}
	return cmp.Or(es.Name, fmt.Sprintf("e%d", i+1)), es.Scenarios
}

// namedAxis is a perturbation or event-set axis as Expand resolves it: each
// value's name in results and its scenario filter.
type namedAxis struct {
	kind    string
	names   []string
	filters []scenarioFilter
}

// resolveNamedAxis labels the values of the axis kind and checks what a
// grid may get wrong about them. Names key aggregation groups, so two values
// may not share one; a filter naming a scenario the grid does not have is a
// typo that would silently drop runs.
func resolveNamedAxis[T interface {
	label(int) (string, scenarioFilter)
}](kind string, vals []T, scenarios []string) (namedAxis, error) {
	ax := namedAxis{kind, make([]string, len(vals)), make([]scenarioFilter, len(vals))}
	for i, v := range vals {
		ax.names[i], ax.filters[i] = v.label(i)
	}
	if err := rejectDuplicateAxis(kind+" name", ax.names); err != nil {
		return ax, err
	}
	for i, f := range ax.filters {
		for _, want := range f {
			if !slices.Contains(scenarios, want) {
				return ax, fmt.Errorf("mptcpsim: %s %q targets unknown scenario %q", kind, ax.names[i], want)
			}
		}
	}
	return ax, nil
}

// covers errors when every value of the axis filters the scenario out: it
// would contribute zero runs with no diagnostic.
func (ax namedAxis) covers(scenario string) error {
	for _, f := range ax.filters {
		if f.matches(scenario) {
			return nil
		}
	}
	return fmt.Errorf("mptcpsim: scenario %q is excluded by every %s's scenario filter", scenario, ax.kind)
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

// LoadGrid parses a JSON grid spec (see Grid for the schema). Unknown
// fields and trailing data are rejected.
func LoadGrid(r io.Reader) (*Grid, error) {
	var g Grid
	if err := decodeStrict(r, &g); err != nil {
		return nil, fmt.Errorf("mptcpsim: grid: %w", err)
	}
	return &g, nil
}

// gridMillis converts a grid's millisecond field to the nearest nanosecond,
// as millis does; 0 stays 0, the default. A negative, sub-nanosecond or
// overflowing value is an error: it would otherwise run the default, or
// whatever the platform makes of an out-of-range float conversion.
func gridMillis(field string, ms float64) (time.Duration, error) {
	if ms == 0 {
		return 0, nil
	}
	if ns := ms * float64(time.Millisecond); !(ns >= 1 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("mptcpsim: grid %s %v is out of range (want 0 for the default, or 1e-06 to %.4g)",
			field, ms, math.MaxInt64/float64(time.Millisecond))
	}
	return millis(ms), nil
}

// RunSpec is one fully resolved point of an expanded grid.
type RunSpec struct {
	// Index is the position in deterministic expansion order.
	Index int
	// Scenario and Perturbation name the topology variant; Events names
	// the dynamic-event set in force ("static" when the axis is unused).
	Scenario, Perturbation, Events string
	// Options are what the run executes, defaults filled in as Run fills
	// them (the order as spelled), plus the sweep's settings.
	Options Options

	cell *cell
}

// cell is what the runs of one (scenario, perturbation, event set) grid
// cell share: the resolved scenario (what specsDigest digests) and the
// preparation of the network Expand built to validate it, made by the first
// run that asks: a cell none of whose runs execute here solves no LP.
type cell struct {
	scenario *ScenarioFile
	prepared func() (*prepared, error)
}

// Expand resolves defaults and produces the deterministic run list: the
// full cross product with scenarios varying slowest, then perturbations,
// event sets, CC algorithms, schedulers, orderings, and seeds fastest. Each
// spec holds the options Run would execute for its point (orders as
// spelled), so two spellings of one run expand to equal specs.
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
	scNames := make([]string, len(scenarios))
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
		ns.name = cmp.Or(ns.name, fmt.Sprintf("s%d", i+1))
		resolved[i], scNames[i] = ns, ns.name
	}
	// Group aggregation keys on the name; duplicates would silently pool
	// unrelated topologies into one cell.
	if err := rejectDuplicateAxis("scenario name", scNames); err != nil {
		return nil, err
	}

	perts := g.Perturbations
	if len(perts) == 0 {
		perts = []Perturbation{{Name: "base"}}
	}
	pax, err := resolveNamedAxis("perturbation", perts, scNames)
	if err != nil {
		return nil, err
	}
	// The events axis: like perturbations, sets are named, deduplicated,
	// and may be scoped to scenarios; an empty axis is one static pass.
	events := g.Events
	if len(events) == 0 {
		events = []EventSet{{Name: "static"}}
	}
	eax, err := resolveNamedAxis("event set", events, scNames)
	if err != nil {
		return nil, err
	}
	// Axis values are validated up front, consistent with the topology
	// pre-build below: a typo'd name, a bad order or a value that runs as
	// another does is a structural error, not N per-run failures. Each
	// value is resolved as Run resolves it (an empty axis is one run of the
	// default), so the empty default collides with its name and seed 0
	// with seed 1.
	ccs := make([]string, max(len(g.CCs), 1))
	copy(ccs, g.CCs)
	for i, name := range ccs {
		ccs[i] = Options{CC: name}.withDefaults().CC
		if _, err := cc.New(ccs[i]); err != nil {
			return nil, fmt.Errorf("mptcpsim: %w", err)
		}
	}
	if err := rejectDuplicateAxis("cc", ccs); err != nil {
		return nil, err
	}
	scheds := make([]string, max(len(g.Schedulers), 1))
	copy(scheds, g.Schedulers)
	for i, name := range scheds {
		scheds[i] = Options{Scheduler: name}.withDefaults().Scheduler
		if _, err := mptcp.NewScheduler(scheds[i]); err != nil {
			return nil, fmt.Errorf("mptcpsim: %w", err)
		}
	}
	if err := rejectDuplicateAxis("scheduler", scheds); err != nil {
		return nil, err
	}
	orders := make([][]int, max(len(g.Orders), 1))
	copy(orders, g.Orders)
	// Orders apply to every scenario, so each must resolve on every
	// scenario's paths; the empty order collides there with the identity
	// order spelled out.
	for _, sc := range resolved {
		orderNames := make([]string, len(orders))
		for i, o := range orders {
			o, err := subflowOrder(o, len(sc.file.Paths))
			if err != nil {
				return nil, fmt.Errorf("%w in scenario %q", err, sc.name)
			}
			orderNames[i] = orderString(o)
		}
		if err := rejectDuplicateAxis("order", orderNames); err != nil {
			return nil, err
		}
	}
	seeds := make([]int64, max(len(g.Seeds), 1))
	copy(seeds, g.Seeds)
	seedNames := make([]string, len(seeds))
	for i, seed := range seeds {
		seeds[i] = Options{Seed: seed}.withDefaults().Seed
		seedNames[i] = strconv.FormatInt(seeds[i], 10)
	}
	if err := rejectDuplicateAxis("seed", seedNames); err != nil {
		return nil, err
	}

	var eff Options
	if eff.Duration, err = gridMillis("duration_ms", g.DurationMs); err != nil {
		return nil, err
	}
	if eff.SampleInterval, err = gridMillis("sample_ms", g.SampleMs); err != nil {
		return nil, err
	}
	// Duration and bin width are the same for every run: one structural
	// error here, not N per-run failures.
	eff = eff.withDefaults()
	if err := eff.checkBins(); err != nil {
		return nil, err
	}

	var specs []RunSpec
	for _, sc := range resolved {
		if err := pax.covers(sc.name); err != nil {
			return nil, err
		}
		if err := eax.covers(sc.name); err != nil {
			return nil, err
		}
		for pi, pert := range perts {
			if !pax.filters[pi].matches(sc.name) {
				continue
			}
			pname := pax.names[pi]
			perturbed, err := pert.apply(sc.file)
			if err != nil {
				return nil, err
			}
			// What this perturbation's runs share, resolved; the axes below
			// set only values they resolved already.
			base := eff
			base.QueueScale, base.DisableSACK = pert.QueueScale, pert.DisableSACK
			base = base.withDefaults()
			for ei, es := range events {
				if !eax.filters[ei].matches(sc.name) {
					continue
				}
				ename := eax.names[ei]
				withEvents := es.apply(perturbed)
				// Catch broken topologies and timelines now rather than
				// burning the whole sweep on runs that all fail at build
				// time: Build validates every event (times, targets,
				// parameters, down/up pairing) against the final perturbed
				// links.
				nw, err := withEvents.Build()
				if err != nil {
					return nil, fmt.Errorf("mptcpsim: scenario %q / perturbation %q / events %q: %w",
						sc.name, pname, ename, err)
				}
				c := &cell{withEvents, sync.OnceValues(func() (*prepared, error) {
					return prepare(nw, eff.Duration, eff.SampleInterval)
				})}
				for _, ccName := range ccs {
					for _, sched := range scheds {
						for _, order := range orders {
							for _, seed := range seeds {
								opts := base
								opts.CC, opts.Scheduler, opts.SubflowPaths, opts.Seed = ccName, sched, order, seed
								specs = append(specs, RunSpec{
									Index:        len(specs),
									Scenario:     sc.name,
									Perturbation: pname,
									Events:       ename,
									Options:      opts,
									cell:         c,
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
